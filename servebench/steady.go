package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
)

// runSteady runs n seeds of one workload as child processes of this
// binary, one after another, and prints each metric's median and
// spread (interquartile range over median) across the runs — the
// figures a metric's regression bound is judged against.
func runSteady(ctx context.Context, cfg config, n int) error {
	if n < 2 {
		return fmt.Errorf("-steady %d: want at least 2 runs", n)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for i := range n {
		seed := cfg.seed + int64(i)
		args := []string{
			"-workload", cfg.workload, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.Itoa(cfg.seconds), "-trace", strconv.Itoa(cfg.trace),
			"-daemon", cfg.daemon, "-out", cfg.out,
		}
		cmd := exec.CommandContext(ctx, self, args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		res, err := lastResult(out)
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		if !res.Correct {
			return fmt.Errorf("seed %d: result not correct", seed)
		}
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	slices.Sort(names)
	fmt.Printf("%-32s %14s %8s  %s\n", "metric", "median", "spread", "values")
	for _, name := range names {
		xs := values[name]
		fmt.Printf("%-32s %14.4f %8.4f  %v %s\n", name, median(slices.Clone(xs)), spread(xs), xs, units[name])
	}
	return nil
}

// lastResult parses the result object on the last line of a run's
// standard output.
func lastResult(out []byte) (*result, error) {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("parse result line: %w", err)
	}
	return &res, nil
}
