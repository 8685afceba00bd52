package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// stamp records the machine shape and the inputs of one run, so a
// result can be compared only with results of the same shape.
type stamp struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Colocated is true when the load generator shares the machine
	// with the serving process it measures (hot-sessions-http).
	Colocated  bool   `json:"colocated"`
	GoVersion  string `json:"go_version"`
	Accesses   int    `json:"store_accesses"`
	StoreSeed  int64  `json:"store_seed"`
	Clients    int    `json:"clients"`
	PlanAsks   int    `json:"plan_asks"`
	PlanUnique int    `json:"plan_distinct_questions"`
}

func newStamp(cfg config) stamp {
	return stamp{
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Trace:      cfg.trace,
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Colocated:  cfg.workload == wlHotHTTP,
		GoVersion:  runtime.Version(),
		Accesses:   cfg.accesses,
		StoreSeed:  storeSeed,
		Clients:    clients,
	}
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MB (10^6 bytes).
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
		}
		return kb * 1024 / 1e6, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// resetPeakRSS restarts this process's VmHWM from its current resident
// set, so the in-process peak covers the serving set-up and window
// only, not the reference engine and grading that precede them.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}
