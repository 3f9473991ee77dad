package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
)

// digestFile maps workload → seed → the outcome digest of each input set.
// The seed "*" holds one digest that every set of every seed must match.
type digestFile map[string]map[string][]string

//go:embed digests.json
var storedDigests []byte

// pinnedSeeds are the seeds whose simulated outcomes are stored: 1 is the
// seed the benchmark is tuned on, 2 is held out.
var pinnedSeeds = []uint64{1, 2}

func loadDigests() (digestFile, error) {
	var d digestFile
	if err := json.Unmarshal(storedDigests, &d); err != nil {
		return nil, fmt.Errorf("stored digests: %w", err)
	}
	return d, nil
}

// expected returns the stored outcome digest of input set k of a workload
// at a seed, if one is stored.
func (d digestFile) expected(workload string, seed uint64, k int) (string, bool) {
	bySeed := d[workload]
	if ds, ok := bySeed[strconv.FormatUint(seed, 10)]; ok && k < len(ds) {
		return ds[k], true
	}
	if ds, ok := bySeed["*"]; ok && len(ds) == 1 {
		return ds[0], true
	}
	return "", false
}

// roundDigest runs input set k of a workload untraced and returns its
// outcome digest.
func roundDigest(ctx context.Context, fn roundFunc, k int) (string, error) {
	var sink []float64
	r := newRound(nil, &sink)
	if err := fn(ctx, r, k); err != nil {
		return "", err
	}
	if r.failed > 0 {
		return "", fmt.Errorf("round %d: %d of %d runs failed", k, r.failed, r.units)
	}
	return r.digest(), nil
}

// recordDigests computes the digest of every input set of every workload
// at the pinned seeds. daemon-mix submits the same specs in every set of
// every seed, so its one digest is stored under "*", after checking that
// all its sets at both pinned seeds agree.
func recordDigests(ctx context.Context, tiny bool) (digestFile, error) {
	d := make(digestFile)
	for _, w := range workloads() {
		d[w.name] = make(map[string][]string)
		for _, seed := range pinnedSeeds {
			fn, err := w.prepare(seed, tiny)
			if err != nil {
				return nil, err
			}
			key := strconv.FormatUint(seed, 10)
			for k := 0; k < w.inputs; k++ {
				dg, err := roundDigest(ctx, fn, k)
				if err != nil {
					return nil, fmt.Errorf("%s seed %d: %w", w.name, seed, err)
				}
				d[w.name][key] = append(d[w.name][key], dg)
			}
		}
		if w.name == daemonMix.name {
			all := append(d[w.name]["1"], d[w.name]["2"]...)
			for _, dg := range all {
				if dg != all[0] {
					return nil, fmt.Errorf("%s: input sets disagree: %v", w.name, all)
				}
			}
			d[w.name] = map[string][]string{"*": {all[0]}}
		}
	}
	return d, nil
}

// digestsMain implements `bench digests`: it recomputes the stored digests
// and writes them to bench/digests.json (run from the checkout root).
func digestsMain(args []string) int {
	fs := flag.NewFlagSet("digests", flag.ContinueOnError)
	out := fs.String("out", "bench/digests.json", "file to write")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	d, err := recordDigests(context.Background(), false)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench digests:", err)
		return 1
	}
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench digests:", err)
		return 1
	}
	if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench digests:", err)
		return 1
	}
	return 0
}
