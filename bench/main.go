// Command bench is the repository's end-to-end benchmark. It runs four
// workloads against the library and the job daemon from outside — building
// inputs with internal/workload, calling udwn.Network.NewSim, Sim.Step,
// dynamics.Driver.Apply and the jobs.Server HTTP handler — checks their
// outputs against stored digests, and reports end-to-end metrics (or, with
// --trace 1, per-layer metrics). Times are reported in reference time,
// corrected for the host's drifting speed (calib.go). See README.md.
//
// Run it from the repository root through bench/run.sh, which builds it:
//
//	bash bench/run.sh --workload dense-local --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --seed 1            # every workload, one child process each
//	bash bench/run.sh compare base/ change/
//	bash bench/run.sh digests             # rewrite bench/digests.json
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"slices"
	"strconv"
	"syscall"
)

func main() {
	args := os.Args[1:]
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			os.Exit(compareMain(args[1:]))
		case "digests":
			os.Exit(digestsMain(args[1:]))
		}
	}
	os.Exit(runMain(args))
}

// resultLine is the last line printed on standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (empty: every workload, each in its own child process)")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "length of the measured window per workload, in seconds")
	traceFlag := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	traceDir := fs.String("trace-dir", filepath.Join(".bench_build", "trace"), "where a traced run writes spans and profiles")
	out := fs.String("out", "", "also write the full result as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "bench: --trace must be 0 or 1")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *name == "" {
		return runAll(ctx, *seed, *seconds, *traceFlag, *traceDir, *out)
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	digests, err := loadDigests()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("# %s: %s\n# %s; op: one %s; %d input sets\n", w.name, w.why, w.loop, w.op, w.inputs)
	o := runOpts{seed: *seed, seconds: *seconds, digests: digests}
	if *traceFlag == 1 {
		o.traceDir = *traceDir
	}
	res, err := runWorkload(ctx, w, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defs := endToEnd
	if res.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		m := res.Metrics[d.name]
		fmt.Printf("%s %s %s %s\n", w.name, d.name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	for _, k := range sortedKeys(res.Info) {
		fmt.Printf("%s info.%s %s\n", w.name, k, strconv.FormatFloat(res.Info[k], 'g', -1, 64))
	}
	for _, p := range res.Problems {
		fmt.Fprintf(os.Stderr, "bench: %s: %s\n", w.name, p)
	}
	if *out != "" {
		if err := writeJSON(*out, res); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	line, err := json.Marshal(resultLine{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload in a child process of its own (a re-exec of
// this binary), so CPU time, peak RSS and GC state are per workload.
func runAll(ctx context.Context, seed uint64, seconds float64, traceFlag int, traceDir, out string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	resDir := filepath.Join(".bench_build", "results")
	if err := os.MkdirAll(resDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	var all []*result
	total := resultLine{Correct: true, Metrics: map[string]metric{}}
	for _, w := range workloads() {
		file := filepath.Join(resDir, fmt.Sprintf("%s-seed%d-trace%d.json", w.name, seed, traceFlag))
		os.Remove(file)
		cmd := exec.CommandContext(ctx, self, "--workload", w.name,
			"--seed", strconv.FormatUint(seed, 10), "--seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
			"--trace", strconv.Itoa(traceFlag), "--trace-dir", traceDir, "--out", file)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			total.Correct = false
		}
		var res result
		if err := readJSON(file, &res); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: no result: %v\n", w.name, err)
			total.Correct = false
			continue
		}
		all = append(all, &res)
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, m := range res.Metrics {
			total.Metrics[w.name+"."+k] = m
		}
	}
	if out != "" {
		if err := writeJSON(out, resultSet{Results: all}); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !total.Correct {
		return 1
	}
	return 0
}

// resultSet is the file format of several results.
type resultSet struct {
	Results []*result `json:"results"`
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return json.NewDecoder(bufio.NewReader(f)).Decode(v)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
