package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// suiteResult is a set of runs of every workload on one commit and one
// host: what -compare reads.
type suiteResult struct {
	Seconds float64      `json:"seconds"`
	Runs    []*runResult `json:"runs"`
}

// runSuite runs every workload runs times, interleaved so that drift of
// the host spreads over all of them, run i with seed+i.
func runSuite(root string, seed int64, seconds float64, runs int, traced bool, outPath string) error {
	if runs < 1 {
		return errors.New("-runs must be at least 1")
	}
	suite := &suiteResult{Seconds: seconds}
	for i := 0; i < runs; i++ {
		for _, w := range workloads {
			res, err := runOne(root, w, seed+int64(i), seconds, traced)
			if err != nil {
				return err
			}
			suite.Runs = append(suite.Runs, res)
		}
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", outPath)
	return writeJSON(outPath, suite)
}

// samples collects the values of one metric on one workload.
func (s *suiteResult) samples(workload, metric string) []float64 {
	var out []float64
	for _, r := range s.Runs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload {
			out = append(out, v)
		}
	}
	return out
}

func (s *suiteResult) failures(workload string) (attempted, failed int) {
	for _, r := range s.Runs {
		if r.Workload == workload {
			attempted += r.Attempted
			failed += r.Failed
		}
	}
	return attempted, failed
}

func readSuite(path string) (*suiteResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s suiteResult
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// verdict judges one (metric, workload) pair: worse is the share of the
// baseline median by which the candidate's median is worse (negative
// when it is better).
func verdict(d metricDef, base, cand []float64) (worse float64, v string) {
	mb, mc := median(base), median(cand)
	worse = (mc - mb) / mb
	if d.Better == "higher" {
		worse = -worse
	}
	switch {
	case worse > d.Bound:
		return worse, "regressed"
	case spread(base) > d.Bound || spread(cand) > d.Bound:
		// The runs of one side disagree by more than the bound: the
		// medians cannot show that nothing changed.
		return worse, "unresolved"
	default:
		return worse, "ok"
	}
}

// compareFiles prints one row per (end-to-end metric, workload) pair of
// two result files — baseline first — and fails on any regression.
func compareFiles(w io.Writer, basePath, candPath string) error {
	base, err := readSuite(basePath)
	if err != nil {
		return err
	}
	cand, err := readSuite(candPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-18s %-16s %12s %25s %12s %25s %9s %6s  %s\n",
		"workload", "metric", "base median", "[q1, q3]", "cand median", "[q1, q3]", "worse by", "bound", "verdict")
	regressed := 0
	for _, wl := range workloads {
		for _, d := range endToEnd {
			b, c := base.samples(wl.name, d.Name), cand.samples(wl.name, d.Name)
			if len(b) == 0 || len(c) == 0 {
				fmt.Fprintf(w, "%-18s %-16s missing on one side\n", wl.name, d.Name)
				continue
			}
			worse, v := verdict(d, b, c)
			if v == "regressed" {
				regressed++
			}
			bq1, bq3 := quartiles(b)
			cq1, cq3 := quartiles(c)
			fmt.Fprintf(w, "%-18s %-16s %12.5g %25s %12.5g %25s %+8.1f%% %5.0f%%  %s\n",
				wl.name, d.Name, median(b), fmt.Sprintf("[%.5g, %.5g]", bq1, bq3),
				median(c), fmt.Sprintf("[%.5g, %.5g]", cq1, cq3), 100*worse, 100*d.Bound, v)
		}
		ba, bf := base.failures(wl.name)
		ca, cf := cand.failures(wl.name)
		fmt.Fprintf(w, "%-18s %-16s base %d of %d, candidate %d of %d\n", wl.name, "failed", bf, ba, cf, ca)
		if cf > bf {
			regressed++
		}
	}
	fmt.Fprintln(w, `"worse by" is the change of the median in the bad direction, as a share of the base median.`)
	if regressed > 0 {
		return fmt.Errorf("%d regressed", regressed)
	}
	return nil
}
