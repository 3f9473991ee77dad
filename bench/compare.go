package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"text/tabwriter"
)

// benchmarkSpec is the part of BENCHMARK.json the comparator reads.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// verdict is the comparator's finding for one (workload, metric) pair.
type verdict string

const (
	gain       verdict = "gain"
	noWorse    verdict = "no worse"
	regression verdict = "regression"
	unresolved verdict = "unresolved"
)

// minPairs is the fewest parent/change pairs a gain may rest on.
const minPairs = 10

// judge compares a metric's runs at the parent (base) and the change. Runs
// pair up by index, and the two sides should alternate which runs first.
//
//   - gain: at least minPairs pairs, the change better in at least nine
//     tenths of them (ties count for neither side), and the medians apart
//     by more than the distance between the parent's quartiles;
//   - unresolved: the parent's spread (quartile distance over median) is
//     wider than the bound, unless every change run is better than every
//     parent run;
//   - regression: the change's median is worse than the parent's by more
//     than bound × the parent's median;
//   - no worse otherwise.
func judge(base, change []float64, lowerBetter bool, bound float64) verdict {
	better := func(a, b float64) bool {
		if lowerBetter {
			return a < b
		}
		return a > b
	}
	pairs := min(len(base), len(change))
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(change[i], base[i]) {
			wins++
		}
	}
	mb, mc := median(base), median(change)
	q1, q3 := quartiles(base)
	iqr := q3 - q1
	gainBy := mb - mc
	if !lowerBetter {
		gainBy = -gainBy
	}
	if pairs >= minPairs && 10*wins >= 9*pairs && gainBy > iqr {
		return gain
	}
	if !(iqr/mb <= bound) { // also when the spread is undefined
		if allBetter(base, change, better) {
			return noWorse
		}
		return unresolved
	}
	if -gainBy > bound*math.Abs(mb) {
		return regression
	}
	return noWorse
}

// allBetter reports whether every change run is better than every parent run.
func allBetter(base, change []float64, better func(a, b float64) bool) bool {
	for _, c := range change {
		for _, b := range base {
			if !better(c, b) {
				return false
			}
		}
	}
	return true
}

// loadResults reads untraced results from a JSON file, from every JSON
// file in a directory in name order, or, for "file.json#name", from the
// named set of a baseline file.
func loadResults(path string) ([]*result, error) {
	if file, name, ok := strings.Cut(path, "#"); ok {
		var b resultSets
		if err := readJSON(file, &b); err != nil {
			return nil, err
		}
		set, ok := b.Sets[name]
		if !ok {
			return nil, fmt.Errorf("%s: no set %q", file, name)
		}
		return untracedOnly(set), nil
	}
	files := []string{path}
	if fi, err := os.Stat(path); err != nil {
		return nil, err
	} else if fi.IsDir() {
		files, err = filepath.Glob(filepath.Join(path, "*.json"))
		if err != nil {
			return nil, err
		}
		slices.Sort(files)
	}
	var out []*result
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var set resultSet
		if err := json.Unmarshal(b, &set); err == nil && set.Results != nil {
			out = append(out, set.Results...)
			continue
		}
		var one result
		if err := json.Unmarshal(b, &one); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		out = append(out, &one)
	}
	return untracedOnly(out), nil
}

func untracedOnly(rs []*result) []*result {
	return slices.DeleteFunc(rs, func(r *result) bool { return r == nil || r.Trace || r.Workload == "" })
}

// resultSets is the format of a file of named result sets, such as the
// measurements in results/, which also name the commit and machine.
type resultSets struct {
	Sets map[string][]*result `json:"sets"`
}

// compareMain implements `bench compare BASE CHANGE`: one row per workload,
// one verdict per end-to-end metric, plus whether the failure fraction
// rose. It exits 1 when any pair regressed or failures rose.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("benchmark", "BENCHMARK.json", "benchmark definition holding the metrics' bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare [--benchmark BENCHMARK.json] BASE CHANGE (result files or directories)")
		return 2
	}
	var spec benchmarkSpec
	if err := readJSON(*specPath, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	base, err := loadResults(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	change, err := loadResults(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	rows, bad := compareResults(spec, base, change)
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	for _, row := range rows {
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	tw.Flush()
	if bad {
		return 1
	}
	return 0
}

// compareResults renders the comparison table and reports whether any
// metric regressed or the failure fraction rose.
func compareResults(spec benchmarkSpec, base, change []*result) (rows [][]string, bad bool) {
	header := []string{"workload", "pairs", "failed base→change"}
	for _, m := range spec.EndToEnd {
		header = append(header, m.Name)
	}
	rows = append(rows, header)
	var names []string
	for _, r := range append(slices.Clone(base), change...) {
		if !slices.Contains(names, r.Workload) {
			names = append(names, r.Workload)
		}
	}
	for _, w := range names {
		b := filterWorkload(base, w)
		c := filterWorkload(change, w)
		pairs := min(len(b), len(c))
		fb, fc := failFrac(b), failFrac(c)
		row := []string{w, fmt.Sprint(pairs), fmt.Sprintf("%.4g→%.4g", fb, fc)}
		if fc > fb {
			row[2] += " ROSE"
			bad = true
		}
		if len(b) == 0 || len(c) == 0 {
			rows = append(rows, append(row, "missing runs on one side"))
			continue
		}
		for _, m := range spec.EndToEnd {
			bv, cv := values(b, m.Name), values(c, m.Name)
			v := judge(bv, cv, m.Better == "lower", m.Bound)
			if v == regression {
				bad = true
			}
			row = append(row, fmt.Sprintf("%s (%+.1f%%)", v, 100*(median(cv)/median(bv)-1)))
		}
		if pairs < minPairs {
			row = append(row, fmt.Sprintf("(fewer than %d pairs: no gain can be claimed)", minPairs))
		}
		rows = append(rows, row)
	}
	return rows, bad
}

func filterWorkload(rs []*result, w string) []*result {
	var out []*result
	for _, r := range rs {
		if r.Workload == w {
			out = append(out, r)
		}
	}
	return out
}

func values(rs []*result, metric string) []float64 {
	out := make([]float64, 0, len(rs))
	for _, r := range rs {
		out = append(out, r.Metrics[metric].Value)
	}
	return out
}

func failFrac(rs []*result) float64 {
	failed, attempted := 0, 0
	for _, r := range rs {
		failed += r.Failed
		attempted += r.Attempted
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}
