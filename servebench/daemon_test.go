package main

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"
)

// TestHTTPWorkloadLeavesNoDaemonBehind runs hot-sessions-http end to
// end — five instances, so daemons are replaced mid-run — and then
// looks for any process still running the daemon binary.
func TestHTTPWorkloadLeavesNoDaemonBehind(t *testing.T) {
	if testing.Short() {
		t.Skip("builds cachemindd and runs a daemon")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "cachemindd")
	build := exec.Command("go", "build", "-o", bin, "cachemind/cmd/cachemindd")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build cachemindd: %v\n%s", err, out)
	}
	cfg := config{workload: wlHotHTTP, seed: 5, seconds: 5, daemon: bin, out: dir, accesses: testAccesses}
	res, _, err := run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1000 {
		t.Errorf("result: correct %v, %d of %d failed", res.Correct, res.Failed, res.Attempted)
	}
	if len(res.Metrics) != len(endToEnd) {
		t.Errorf("%d metrics, want the %d end-to-end ones", len(res.Metrics), len(endToEnd))
	}
	if pids := processesRunning(t, bin); len(pids) > 0 {
		t.Errorf("cachemindd still running after the run: pids %v", pids)
	}
}

// processesRunning lists the live processes whose executable is path.
func processesRunning(t *testing.T, path string) []int {
	t.Helper()
	entries, err := os.ReadDir("/proc")
	if err != nil {
		t.Skipf("no /proc: %v", err)
	}
	var pids []int
	for _, e := range entries {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		if exe, err := os.Readlink(filepath.Join("/proc", e.Name(), "exe")); err == nil && exe == path {
			pids = append(pids, pid)
		}
	}
	return pids
}
