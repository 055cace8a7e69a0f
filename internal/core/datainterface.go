package core

import (
	"context"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"github.com/bgpstream-go/bgpstream/internal/archive"
)

// DataInterface supplies dump-file meta-data to a Stream, abstracting
// the Broker, local directories, CSV indexes, and explicit file lists
// (§3.2, "Broker Data Interface … Single file, CSV file, SQLite").
//
// NextBatch returns the next time-window of dump files in
// chronological order and io.EOF after the final batch. Live
// implementations block — honouring ctx — until new data appears,
// giving the "client pull" model of §3.3.2.
type DataInterface interface {
	NextBatch(ctx context.Context) ([]archive.DumpMeta, error)
}

// SingleFiles is the "single file" data interface: an explicit list of
// dump files delivered as one batch. It lets users analyse local files
// without any meta-data service.
type SingleFiles struct {
	Metas []archive.DumpMeta
	done  bool
}

// NextBatch implements DataInterface.
func (s *SingleFiles) NextBatch(ctx context.Context) ([]archive.DumpMeta, error) {
	if s.done {
		return nil, io.EOF
	}
	s.done = true
	metas := append([]archive.DumpMeta(nil), s.Metas...)
	archive.SortMetas(metas)
	return metas, nil
}

// CSVFile is the CSV data interface: a local index file with one dump
// per line in the form
//
//	project,collector,type,unix_start,duration_seconds,url
//
// Lines starting with '#' are comments.
type CSVFile struct {
	Path string
	done bool
}

// NextBatch implements DataInterface.
func (c *CSVFile) NextBatch(ctx context.Context) ([]archive.DumpMeta, error) {
	if c.done {
		return nil, io.EOF
	}
	c.done = true
	f, err := os.Open(c.Path)
	if err != nil {
		return nil, fmt.Errorf("core: csv interface: %w", err)
	}
	defer f.Close()
	r := csv.NewReader(f)
	r.Comment = '#'
	r.FieldsPerRecord = 6
	var metas []archive.DumpMeta
	for {
		row, err := r.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("core: csv interface: %w", err)
		}
		start, err := strconv.ParseInt(row[3], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("core: csv interface: bad start %q: %w", row[3], err)
		}
		durSec, err := strconv.ParseInt(row[4], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("core: csv interface: bad duration %q: %w", row[4], err)
		}
		t := DumpType(row[2])
		if !t.Valid() {
			return nil, fmt.Errorf("core: csv interface: bad dump type %q", row[2])
		}
		metas = append(metas, archive.DumpMeta{
			Project:   row[0],
			Collector: row[1],
			Type:      t,
			Time:      time.Unix(start, 0).UTC(),
			Duration:  time.Duration(durSec) * time.Second,
			URL:       row[5],
		})
	}
	archive.SortMetas(metas)
	return metas, nil
}

// Directory is a data interface over a local archive tree in the
// on-disk layout of archive.Store. The whole scan is delivered as one
// batch; the Stream's sweep merge keeps merge fan-in to the files
// live at one instant.
type Directory struct {
	Dir  string
	done bool
}

// NextBatch implements DataInterface.
func (d *Directory) NextBatch(ctx context.Context) ([]archive.DumpMeta, error) {
	if d.done {
		return nil, io.EOF
	}
	d.done = true
	store := &archive.Store{Root: d.Dir}
	metas, err := store.Scan()
	if err != nil {
		return nil, fmt.Errorf("core: directory interface: %w", err)
	}
	return metas, nil
}

// Windowed wraps another interface's single batch into fixed-size
// time windows, emulating the Broker's response windowing for overload
// protection (§3.2). It is also what keeps the number of concurrently
// open dump files bounded on long historical runs.
type Windowed struct {
	Inner  DataInterface
	Window time.Duration

	loaded  bool
	pending []archive.DumpMeta
}

// NextBatch implements DataInterface.
func (w *Windowed) NextBatch(ctx context.Context) ([]archive.DumpMeta, error) {
	if !w.loaded {
		for {
			batch, err := w.Inner.NextBatch(ctx)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return nil, err
			}
			w.pending = append(w.pending, batch...)
		}
		archive.SortMetas(w.pending)
		w.loaded = true
	}
	if len(w.pending) == 0 {
		return nil, io.EOF
	}
	window := w.Window
	if window <= 0 {
		window = 2 * time.Hour
	}
	cutoff := w.pending[0].Time.Add(window)
	i := 0
	for i < len(w.pending) && w.pending[i].Time.Before(cutoff) {
		i++
	}
	batch := w.pending[:i]
	w.pending = w.pending[i:]
	return batch, nil
}
