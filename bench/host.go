package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// hostRecord says where a result was measured, and how fast that host
// runs two fixed kernels that share no code with the repository, so
// that results from different boxes can be normalised.
type hostRecord struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	GitCommit  string `json:"git_commit"`
	// CalibInflateMBPerS: stdlib gzip inflate of a fixed 4 MiB blob,
	// best of five. CalibDecodeNsPerOp: a fixed big-endian TLV walk
	// over a fixed 64 KiB buffer, ns per TLV, best of five.
	CalibInflateMBPerS float64 `json:"calib_inflate_mb_per_s"`
	CalibDecodeNsPerOp float64 `json:"calib_decode_ns_per_op"`
}

func recordHost(root string) *hostRecord {
	h := &hostRecord{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		GitCommit:  "unknown", // the driver's checkouts are not git repositories
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		h.GitCommit = strings.TrimSpace(string(out))
	}
	h.CalibInflateMBPerS, h.CalibDecodeNsPerOp = calibrate()
	return h
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// calibSink keeps the decode kernel's result alive.
var calibSink uint64

// calibrate runs the two host-calibration kernels. Their inputs come
// from a fixed-seed generator, so they are the same bytes everywhere.
func calibrate() (inflateMBPerS, decodeNsPerOp float64) {
	rng := rand.New(rand.NewSource(20160301))

	// Inflate: 4 MiB of records that compress about as MRT does.
	raw := make([]byte, 4<<20)
	for i := 0; i < len(raw); i += 64 {
		binary.BigEndian.PutUint32(raw[i:], uint32(1456790400+i/4096))
		binary.BigEndian.PutUint32(raw[i+4:], uint32(rng.Intn(4096)))
		for j := 8; j < 64; j++ {
			raw[i+j] = byte(rng.Intn(12))
		}
	}
	var zipped bytes.Buffer
	zw := gzip.NewWriter(&zipped)
	zw.Write(raw)
	zw.Close()
	best := time.Duration(1 << 62)
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		zr, err := gzip.NewReader(bytes.NewReader(zipped.Bytes()))
		if err != nil {
			panic(err) // we wrote it ourselves
		}
		io.Copy(io.Discard, zr)
		best = min(best, time.Since(t0))
	}
	inflateMBPerS = float64(len(raw)) / 1e6 / best.Seconds()

	// Decode: walk type(1) length(1) value TLVs, summing 4-byte values.
	buf := make([]byte, 0, 64<<10)
	ops := 0
	for len(buf)+34 <= cap(buf) {
		n := 4 * (1 + rng.Intn(8))
		buf = append(buf, byte(rng.Intn(16)), byte(n))
		for j := 0; j < n; j++ {
			buf = append(buf, byte(rng.Intn(256)))
		}
		ops++
	}
	best = time.Duration(1 << 62)
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		var sum uint64
		for rep := 0; rep < 200; rep++ {
			for off := 0; off < len(buf); {
				n := int(buf[off+1])
				for v := buf[off+2 : off+2+n]; len(v) >= 4; v = v[4:] {
					sum += uint64(binary.BigEndian.Uint32(v)) ^ uint64(buf[off])
				}
				off += 2 + n
			}
		}
		calibSink += sum
		best = min(best, time.Since(t0))
	}
	decodeNsPerOp = float64(best) / float64(200*ops)
	return inflateMBPerS, decodeNsPerOp
}
