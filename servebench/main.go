// Command servebench is CacheMind's serving benchmark. It drives one
// named workload closed loop from two callers against an in-process
// engine (cold-grounded, hot-sessions) or a cachemindd child process
// over loopback HTTP (hot-sessions-http), checks every reply against
// the uncached pipeline, and prints its metrics as one JSON line.
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 it
// runs an untraced and a traced window and reports the per-layer
// breakdown. See README.md for the workloads, the metric map and how
// to run it; run.sh builds it and cachemindd from the checkout.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"syscall"
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	daemon   string // cachemindd binary (hot-sessions-http)
	out      string // directory for span files and result copies
	accesses int    // store size; tests use a smaller one
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	cfg := config{accesses: defaultAccesses}
	flag.StringVar(&cfg.workload, "workload", "", fmt.Sprintf("workload to run: one of %v", workloads))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the workload's plan and graded suites")
	flag.IntVar(&cfg.seconds, "seconds", 10, "length of the measured window(s) in seconds")
	flag.IntVar(&cfg.trace, "trace", 0, "0: end-to-end metrics; 1: traced run with the per-layer breakdown")
	flag.StringVar(&cfg.daemon, "daemon", "", "cachemindd binary for hot-sessions-http")
	flag.StringVar(&cfg.out, "out", ".bench_build/servebench", "directory for span files and result copies")
	steady := flag.Int("steady", 0, "instead of one run, run this many seeds (seed, seed+1, ...) of -workload as child processes and print each metric's median and spread")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *steady > 0 {
		if err := runSteady(ctx, cfg, *steady); err != nil {
			fmt.Fprintln(os.Stderr, "servebench:", err)
			os.Exit(1)
		}
		return
	}
	if err := cfg.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(2)
	}
	res, st, err := run(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	if err := emit(cfg, res, st); err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

func (c config) validate() error {
	if !slices.Contains(workloads, c.workload) {
		return fmt.Errorf("-workload %q: want one of %v", c.workload, workloads)
	}
	if c.seconds < 1 {
		return fmt.Errorf("-seconds %d: want at least 1", c.seconds)
	}
	if c.trace != 0 && c.trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", c.trace)
	}
	if c.workload == wlHotHTTP && c.daemon == "" {
		return errors.New("hot-sessions-http needs -daemon (the cachemindd binary)")
	}
	return nil
}

// emit prints the stamp and a readable metric table to stderr, keeps a
// copy of both in the output directory, and prints the result as the
// last line of stdout.
func emit(cfg config, res *result, st stamp) error {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(os.Stderr, "%-32s %14.4f %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	stampLine, err := json.Marshal(map[string]any{"stamp": st})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	keep := filepath.Join(cfg.out, fmt.Sprintf("result-%s-trace%d.json", cfg.workload, cfg.trace))
	if err := os.WriteFile(keep, append(append(stampLine, '\n'), append(line, '\n')...), 0o644); err != nil {
		return err
	}
	fmt.Println(string(stampLine))
	fmt.Println(string(line))
	return nil
}
