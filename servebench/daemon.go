package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one cachemindd child process listening on loopback.
type daemon struct {
	cmd   *exec.Cmd
	url   string
	ready time.Duration // launch → /readyz 200
	logs  sync.WaitGroup

	mu   sync.Mutex
	tail []string // last log lines, for error reports
}

// startDaemon launches the cachemindd binary at path on an ephemeral
// loopback port with the given extra flags and waits until /readyz
// answers 200. The child dies with this process (Pdeathsig), and the
// caller stops it with stop.
func startDaemon(ctx context.Context, path string, args ...string) (*daemon, error) {
	launched := time.Now()
	cmd := exec.Command(path, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", path, err)
	}
	d := &daemon{cmd: cmd}
	addrc := make(chan string, 1) // one send at most; never blocks the log reader
	d.logs.Add(1)
	go func() {
		defer d.logs.Done()
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.tail = append(d.tail[max(len(d.tail)-9, 0):], line)
			d.mu.Unlock()
			if _, addr, ok := strings.Cut(line, "listening on "); ok && !sent {
				addrc <- strings.TrimSpace(addr)
				sent = true
			}
		}
		// Drain whatever the scanner left so the child never blocks on
		// a full pipe.
		_, _ = io.Copy(io.Discard, stderr)
	}()

	fail := func(err error) (*daemon, error) {
		_ = d.stop()
		return nil, fmt.Errorf("%w; daemon log: %s", err, d.logTail())
	}
	select {
	case addr := <-addrc:
		d.url = "http://" + addr
	case <-time.After(60 * time.Second):
		return fail(errors.New("cachemindd did not report its address within 60s"))
	case <-ctx.Done():
		return fail(ctx.Err())
	}
	deadline := time.Now().Add(120 * time.Second)
	for {
		resp, err := http.Get(d.url + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			return fail(errors.New("cachemindd not ready within 120s"))
		}
		select {
		case <-time.After(5 * time.Millisecond):
		case <-ctx.Done():
			return fail(ctx.Err())
		}
	}
	d.ready = time.Since(launched)
	return d, nil
}

func (d *daemon) logTail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.tail, " | ")
}

// pid is the child's process ID.
func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop sends SIGTERM, waits up to 10s for a graceful exit, then kills
// the child; it returns once the process has ended and its log reader
// has finished.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1) // the one Wait result; never blocks the waiter
	go func() { done <- d.cmd.Wait() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		err = <-done
	}
	d.logs.Wait()
	var exit *exec.ExitError
	if errors.As(err, &exit) && !exit.Exited() {
		// Killed by the signal we sent: the expected way to end.
		return nil
	}
	return err
}

// wireReply is the part of the v1 /v1/ask envelope the benchmark reads.
type wireReply struct {
	Answer    string  `json:"answer"`
	Verdict   string  `json:"verdict"`
	Category  string  `json:"category"`
	Quality   string  `json:"quality"`
	Grounded  bool    `json:"grounded"`
	CacheTier string  `json:"cache_tier"`
	TotalMS   float64 `json:"total_ms"`
}

// httpAsker posts asks to one daemon over clients keep-alive
// connections. Request bodies are rendered once, before any set-up.
type httpAsker struct {
	client *http.Client
	url    string // the daemon's /v1/ask, set per launch
	bodies map[*item][]byte
}

func newHTTPAsker(p *plan) *httpAsker {
	tr := &http.Transport{
		MaxIdleConns:        clients,
		MaxIdleConnsPerHost: clients,
		MaxConnsPerHost:     clients,
		DisableCompression:  true,
	}
	a := &httpAsker{client: &http.Client{Transport: tr, Timeout: 60 * time.Second}, bodies: map[*item][]byte{}}
	for _, items := range [][]item{p.Items, p.Serial, p.Concurrent} {
		for i := range items {
			body, _ := json.Marshal(map[string]string{"session": items[i].Session, "question": items[i].Question})
			a.bodies[&items[i]] = body
		}
	}
	return a
}

func (a *httpAsker) ask(ctx context.Context, _ int, it *item) (reply, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, a.url, bytes.NewReader(a.bodies[it]))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := a.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return reply{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return reply{}, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var w wireReply
	if err := json.Unmarshal(body, &w); err != nil {
		return reply{}, fmt.Errorf("decode reply: %w", err)
	}
	return reply{
		ans:   answer{Text: w.Answer, Verdict: w.Verdict, Category: w.Category, Quality: w.Quality, Grounded: w.Grounded},
		tier:  w.CacheTier,
		total: time.Duration(w.TotalMS * float64(time.Millisecond)),
		bytes: len(body),
	}, nil
}

func (a *httpAsker) close() { a.client.CloseIdleConnections() }

// daemonArgs are the flags the benchmark passes cachemindd beyond the
// listen address: the plan's semantic threshold, and the store size
// when it differs from the daemon's default.
func daemonArgs(p *plan, accesses int) []string {
	args := []string{"-semantic-threshold", strconv.FormatFloat(p.SemanticThreshold, 'f', -1, 64)}
	if accesses != defaultAccesses {
		args = append(args, "-accesses", strconv.Itoa(accesses))
	}
	return args
}
