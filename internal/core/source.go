package core

import (
	"context"
	"fmt"
)

// Source is the unified stream source: anything that can feed a
// Stream, healing the pull/push split between DataInterface (dump-file
// meta-data the stream opens and decomposes itself) and ElemSource
// (already-decomposed elems pushed per message). OpenStream binds the
// source to a context and filter set and returns the running stream.
//
// Both legacy kinds satisfy Source through the PullSource and
// PushSource adapters (or AsSource, which picks automatically), so
// every existing DataInterface and ElemSource implementation plugs
// into the unified front end unchanged.
type Source interface {
	OpenStream(ctx context.Context, f Filters) (*Stream, error)
}

// PullSource adapts a DataInterface into a Source. A DataInterface is
// a single-use cursor: the first stream opened drains it, and any
// later OpenStream of the same Source reads the spent cursor (most
// built-in interfaces then yield nothing). A Source that must reopen
// (a gap-repair backfill, a registry factory) builds its DataInterface
// inside OpenStream instead.
func PullSource(di DataInterface) Source {
	return SourceFunc(func(ctx context.Context, f Filters) (*Stream, error) {
		return NewStream(ctx, di, f), nil
	})
}

// PushSource adapts an ElemSource into a Source.
func PushSource(es ElemSource) Source {
	return SourceFunc(func(ctx context.Context, f Filters) (*Stream, error) {
		return NewLiveStream(ctx, es, f), nil
	})
}

// SourceFunc adapts a function into a Source; registries use it to
// defer source construction until filters are known.
type SourceFunc func(ctx context.Context, f Filters) (*Stream, error)

// OpenStream implements Source.
func (fn SourceFunc) OpenStream(ctx context.Context, f Filters) (*Stream, error) {
	return fn(ctx, f)
}

// AsSource converts v into a Source: Sources pass through, pull
// DataInterfaces and push ElemSources are wrapped. Anything else is an
// error. A value implementing several of the interfaces resolves in
// that order.
func AsSource(v any) (Source, error) {
	switch s := v.(type) {
	case Source:
		return s, nil
	case DataInterface:
		return PullSource(s), nil
	case ElemSource:
		return PushSource(s), nil
	case nil:
		return nil, fmt.Errorf("core: nil source")
	default:
		return nil, fmt.Errorf("core: %T is not a Source, DataInterface or ElemSource", v)
	}
}
