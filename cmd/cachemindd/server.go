package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cachemind/internal/cluster"
	"cachemind/internal/engine"
	"cachemind/internal/histogram"
)

// server wires the engine to the HTTP API. Handler state is the engine
// (already concurrency-safe), a worker-bound semaphore, optional
// cluster/limiter/checkpoint layers, and monotonic counters/histograms,
// so one server serves all connections.
//
// The engine may be bound late: main starts the listener before the
// store build so liveness (/healthz) is observable from the first
// instant, binds the engine when the build finishes, and flips ready
// when the node is fully serviceable (engine + ring + checkpoint
// restore). eng is written before the ready flip and every
// engine-touching handler checks ready first, so no handler ever
// observes a nil engine.
type server struct {
	eng *engine.Engine
	// ready gates the serving surface: false until the store build (and
	// in cluster mode the ring) is initialized. /healthz is liveness
	// and ignores it; /readyz and every engine-touching route enforce
	// it.
	ready atomic.Bool
	// cl is the cluster view; nil on a standalone daemon.
	cl *clusterState
	// limiter is the front-door per-client rate limiter (-rate-limit);
	// nil or disabled means no limiting. Forwarded peer requests are
	// exempt — the originating node already charged its client.
	limiter     *cluster.Limiter
	ratelimited atomic.Uint64
	// ckpt feeds checkpoint counters to /metrics; nil without
	// -checkpoint-dir.
	ckpt *cluster.Checkpointer
	// sem bounds how many asks run concurrently; extra requests queue
	// on the channel (the daemon's -workers knob).
	sem chan struct{}
	// reqTimeout caps each request's engine time (the -request-timeout
	// knob; 0 = no server-side deadline). The deadline composes with
	// client-disconnect cancellation: whichever fires first aborts the
	// ask at its next pipeline checkpoint.
	reqTimeout time.Duration
	// maxQueue bounds how many requests may wait for a worker slot
	// (the -max-queue knob; 0 = unbounded). Requests beyond it are
	// shed immediately with CodeOverloaded instead of queueing.
	maxQueue int
	queued   atomic.Int64

	started      time.Time
	httpRequests atomic.Uint64
	httpErrors   atomic.Uint64
	// routes holds one stats block per route (built at route
	// registration, read-only afterwards) — the /metrics source for
	// per-route latency quantiles and responses-by-code counters.
	routes map[string]*routeStats
}

// wireCodes is the daemon's one wire-code table (the v1 wire contract;
// see the README's status-code table): "ok" plus every engine.Code,
// each with the HTTP status it is written with, in the stable order
// /metrics renders them. Statuses are distinct, so the table maps both
// ways; "internal" is last and also buckets any error status the table
// does not name. 499 is the de-facto "client closed request" status:
// the client is gone, but the code still lands in logs and metrics.
var wireCodes = [...]struct {
	code   string
	status int
}{
	{"ok", http.StatusOK},
	{string(engine.CodeInvalidRequest), http.StatusBadRequest},
	{string(engine.CodeSessionNotFound), http.StatusNotFound},
	{string(engine.CodeCanceled), 499},
	{string(engine.CodeDeadlineExceeded), http.StatusGatewayTimeout},
	{string(engine.CodeOverloaded), http.StatusServiceUnavailable},
	{string(engine.CodeInternal), http.StatusInternalServerError},
}

// routeStats is one route's latency histogram plus its responses
// bucketed by wire code (indexed as in wireCodes).
type routeStats struct {
	hist  *histogram.Histogram
	codes [len(wireCodes)]atomic.Uint64
}

// newServer builds a server over the engine with at most workers
// concurrent asks (<= 0 selects runtime.NumCPU()), a per-request
// engine timeout (0 disables), and an admission-queue bound (0
// disables). A non-nil engine marks the server ready immediately (the
// in-process/test path); main passes nil, binds the engine with
// setEngine once the store build finishes, and flips markReady when
// the node is fully serviceable.
func newServer(eng *engine.Engine, workers int, reqTimeout time.Duration, maxQueue int) *server {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	s := &server{
		eng:        eng,
		sem:        make(chan struct{}, workers),
		reqTimeout: reqTimeout,
		maxQueue:   maxQueue,
		started:    time.Now(),
		routes:     map[string]*routeStats{},
	}
	if eng != nil {
		s.ready.Store(true)
	}
	return s
}

// setEngine binds the engine after a late store build. Must happen
// before markReady; handlers never read s.eng until ready is true.
func (s *server) setEngine(eng *engine.Engine) { s.eng = eng }

// markReady flips the readiness gate: /readyz starts answering 200 and
// the serving routes stop shedding.
func (s *server) markReady() { s.ready.Store(true) }

// handler returns the daemon's route table.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/ask", s.instrument("ask", s.handleAsk))
	mux.HandleFunc("POST /v1/ask/batch", s.instrument("ask_batch", s.handleAskBatch))
	mux.HandleFunc("GET /v1/sessions/{id}", s.instrument("session", s.handleSession))
	mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealthz))
	mux.HandleFunc("GET /readyz", s.instrument("readyz", s.handleReadyz))
	mux.HandleFunc("GET /metrics", s.instrument("metrics", s.handleMetrics))
	mux.HandleFunc("GET /v1/cluster/members", s.instrument("cluster_members", s.handleClusterMembersGet))
	mux.HandleFunc("PUT /v1/cluster/members", s.instrument("cluster_members_set", s.handleClusterMembersPut))
	mux.HandleFunc("POST /v1/cluster/handoff", s.instrument("cluster_handoff", s.handleClusterHandoff))
	return mux
}

// ensureReady sheds the request with 503 overloaded when the node is
// still starting (store building, ring or checkpoint not yet
// initialized). Rolling restarts poll /readyz before routing traffic,
// so this is a belt-and-suspenders backstop, not the normal path.
func (s *server) ensureReady(w http.ResponseWriter) bool {
	if s.ready.Load() {
		return true
	}
	s.fail(w, engine.Errf(engine.CodeOverloaded, "node is starting up (store build or cluster init in progress)"))
	return false
}

// allowClient applies the front-door per-client rate limit, keyed by
// the remote host. Forwarded peer traffic is exempt (the hop header
// marks it): the originating node already charged the real client, and
// peers must not starve each other. Returns false after writing the
// 503 envelope.
func (s *server) allowClient(w http.ResponseWriter, r *http.Request) bool {
	if !s.limiter.Enabled() || isForwarded(r) {
		return true
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		host = r.RemoteAddr
	}
	if s.limiter.Allow(host) {
		return true
	}
	s.ratelimited.Add(1)
	s.fail(w, engine.Errf(engine.CodeOverloaded, "rate limit exceeded for client %s", host))
	return false
}

// statusRecorder captures the status a handler wrote so instrument can
// bucket the response by code.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(status int) {
	r.status = status
	r.ResponseWriter.WriteHeader(status)
}

// instrument wraps a handler with the global request counter, the
// route's latency histogram, and the route's responses-by-code
// counters.
func (s *server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	st := &routeStats{hist: histogram.New()}
	s.routes[route] = st
	return func(w http.ResponseWriter, r *http.Request) {
		s.httpRequests.Add(1)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h(rec, r)
		st.hist.Observe(time.Since(start))
		st.codes[codeIndexForStatus(rec.status)].Add(1)
	}
}

// statusForCode looks the engine.Code's HTTP status up in wireCodes.
// An unknown code (none exists: TestWireCodesTable requires a row for
// every declared constant) degrades to 500.
func statusForCode(c engine.Code) int {
	for _, w := range wireCodes[1:] {
		if w.code == string(c) {
			return w.status
		}
	}
	return http.StatusInternalServerError
}

// codeIndexForStatus buckets a written status into its wireCodes row:
// below 400 is "ok", an error status the table does not name is
// "internal" (the last row).
func codeIndexForStatus(status int) int {
	if status < 400 {
		return 0
	}
	for i, w := range wireCodes[1:] {
		if w.status == status {
			return i + 1
		}
	}
	return len(wireCodes) - 1
}

// askContext derives the engine context for one request: the client's
// connection context (canceled on disconnect), capped by the
// server-side request timeout when configured.
func (s *server) askContext(r *http.Request) (context.Context, context.CancelFunc) {
	if s.reqTimeout > 0 {
		return context.WithTimeout(r.Context(), s.reqTimeout)
	}
	return r.Context(), func() {}
}

// admit acquires one worker slot, enforcing the admission-queue bound.
// It returns a typed error (overloaded, canceled, or deadline-
// exceeded) when the request should be shed; on success the caller
// must release the slot. The queued counter only counts requests that
// actually failed to acquire a free slot and are waiting — an
// instantly-served request never touches it — and the bound is
// approximate under simultaneous arrivals (a shed decision, not an
// exact quota).
func (s *server) admit(ctx context.Context) error {
	select {
	case s.sem <- struct{}{}:
		return nil // free slot: no queueing at all
	default:
	}
	if s.maxQueue > 0 && s.queued.Load() >= int64(s.maxQueue) {
		return engine.Errf(engine.CodeOverloaded, "server overloaded: %d requests already queued", s.maxQueue)
	}
	s.queued.Add(1)
	defer s.queued.Add(-1)
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			return engine.Errf(engine.CodeDeadlineExceeded, "request timed out while queued for a worker")
		}
		return engine.Errf(engine.CodeCanceled, "request canceled while queued for a worker")
	}
}

// askOptions is the wire form of engine.Options.
type askOptions struct {
	// NoMemory skips recording the exchange in session memory.
	NoMemory bool `json:"no_memory"`
	// BypassCache skips the answer cache for this request.
	BypassCache bool `json:"bypass_cache"`
	// NoSemantic skips the semantic cache tier for this request (exact
	// hash, then straight to the cold pipeline).
	NoSemantic bool `json:"no_semantic"`
	// MinSimilarity overrides the server's semantic threshold for this
	// request (0: server default; 1: exact-only; outside [0,1]:
	// invalid-request).
	MinSimilarity float64 `json:"min_similarity"`
	// Provenance selects context verbosity: "" or "none" (default),
	// "context", or "full".
	Provenance string `json:"provenance"`
}

// engineOptions maps wire options onto engine.Options, rejecting an
// unknown provenance level (the engine itself validates
// min_similarity's range).
func (o *askOptions) engineOptions() (engine.Options, error) {
	opts := engine.Options{}
	if o == nil {
		return opts, nil
	}
	opts.NoMemory = o.NoMemory
	opts.BypassCache = o.BypassCache
	opts.NoSemantic = o.NoSemantic
	opts.MinSimilarity = o.MinSimilarity
	switch o.Provenance {
	case "", "none":
	case "context":
		opts.Provenance = engine.ProvenanceContext
	case "full":
		opts.Provenance = engine.ProvenanceFull
	default:
		return opts, engine.Errf(engine.CodeInvalidRequest,
			"unknown provenance %q (want \"none\", \"context\" or \"full\")", o.Provenance)
	}
	return opts, nil
}

// askRequest is the POST /v1/ask body (and one item of the batch
// body).
type askRequest struct {
	// Session names the conversation; it is created on first use.
	// Empty selects the shared anonymous session.
	Session  string `json:"session"`
	Question string `json:"question"`
	// Options are the optional per-request knobs.
	Options *askOptions `json:"options"`
}

// askResponse is the POST /v1/ask reply.
type askResponse struct {
	Session  string `json:"session"`
	Question string `json:"question"`
	Answer   string `json:"answer"`
	Verdict  string `json:"verdict"`
	Category string `json:"category"`
	Quality  string `json:"quality"`
	Grounded bool   `json:"grounded"`
	// CacheTier reports which tier served the answer: "exact",
	// "semantic", or "cold" — the source of truth for the cache
	// outcome; cached is kept as the derived v1 compatibility flag
	// (cache_tier != "cold").
	CacheTier string `json:"cache_tier"`
	// Similarity is the cosine score of the served neighbor on a
	// semantic hit (omitted otherwise).
	Similarity float64 `json:"similarity,omitempty"`
	Cached     bool    `json:"cached"`
	// Shard is the engine cache shard the question's key hashed to.
	Shard int `json:"shard"`
	// Retriever and Model identify the serving configuration.
	Retriever string `json:"retriever"`
	Model     string `json:"model"`
	// Context and Queries carry retrieval provenance when the request
	// opted in (options.provenance).
	Context string   `json:"context,omitempty"`
	Queries []string `json:"queries,omitempty"`
	// Per-stage timings in milliseconds. For cached answers,
	// retrieval_ms/generate_ms report the original computation.
	RetrievalMS float64 `json:"retrieval_ms"`
	GenerateMS  float64 `json:"generate_ms"`
	TotalMS     float64 `json:"total_ms"`
}

// toWire converts an engine.Response into the wire reply.
func toWire(resp engine.Response) askResponse {
	return askResponse{
		Session:     resp.SessionID,
		Question:    resp.Question,
		Answer:      resp.Text,
		Verdict:     resp.Verdict,
		Category:    resp.Category,
		Quality:     resp.Quality,
		Grounded:    resp.Grounded,
		CacheTier:   string(resp.Tier),
		Similarity:  resp.Similarity,
		Cached:      resp.Cached,
		Shard:       resp.Shard,
		Retriever:   resp.Retriever,
		Model:       resp.Model,
		Context:     resp.Context,
		Queries:     resp.Queries,
		RetrievalMS: ms(resp.Timings.Retrieval),
		GenerateMS:  ms(resp.Timings.Generation),
		TotalMS:     ms(resp.Timings.Total),
	}
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// maxAskBodyBytes bounds the request body, and maxQuestionBytes the
// question itself — accepted questions are retained (answer cache,
// session logs, conversation memory), so byte caps keep the
// session/cache count bounds meaningful as memory ceilings.
const (
	maxAskBodyBytes  = 1 << 20 // 1 MiB
	maxQuestionBytes = 8 << 10 // 8 KiB
)

// validateQuestion applies the shared wire-level question checks.
func validateQuestion(q string) error {
	if strings.TrimSpace(q) == "" {
		return engine.Errf(engine.CodeInvalidRequest, "question must not be empty")
	}
	if len(q) > maxQuestionBytes {
		return engine.Errf(engine.CodeInvalidRequest, "question exceeds %d bytes", maxQuestionBytes)
	}
	return nil
}

func (s *server) handleAsk(w http.ResponseWriter, r *http.Request) {
	if !s.ensureReady(w) || !s.allowClient(w, r) {
		return
	}
	var req askRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxAskBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.fail(w, engine.Errf(engine.CodeInvalidRequest, "malformed request body: %v", err))
		return
	}
	if err := validateQuestion(req.Question); err != nil {
		s.fail(w, err)
		return
	}
	opts, err := req.Options.engineOptions()
	if err != nil {
		s.fail(w, err)
		return
	}

	// Cluster routing: a non-owner relays the ask to its owner over the
	// same wire envelope, exactly one hop (the hop header makes the
	// owner serve locally no matter what its ring says, so disagreeing
	// rings cost an extra hop, never a loop). A failed relay — peer
	// down, breaker open, retries exhausted — falls back to serving
	// locally: answers are pure functions of the question, so the
	// client still gets byte-identical bytes, just without the owner's
	// cache locality.
	if s.cl != nil {
		if isForwarded(r) {
			s.cl.hopsIn.Add(1)
		} else if owner := s.cl.owner(req.Session, req.Question); owner != s.cl.self {
			body, merr := json.Marshal(req)
			if merr == nil {
				ctx, cancel := s.askContext(r)
				status, peerBody, ok := s.cl.forward(ctx, owner, "/v1/ask", body)
				cancel()
				if ok {
					if status >= 400 {
						s.httpErrors.Add(1)
					}
					w.Header().Set("Content-Type", "application/json")
					w.WriteHeader(status)
					_, _ = w.Write(peerBody)
					return
				}
			}
		}
	}

	ctx, cancel := s.askContext(r)
	defer cancel()
	if err := s.admit(ctx); err != nil {
		s.fail(w, err)
		return
	}
	defer func() { <-s.sem }()

	resp, err := s.eng.Ask(ctx, engine.Request{SessionID: req.Session, Question: req.Question, Options: opts})
	if err != nil {
		s.fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, toWire(resp))
}

// maxBatchItems bounds one POST /v1/ask/batch request, and
// maxBatchBodyBytes its body — sized so a full batch of maximum-length
// questions (plus JSON overhead) fits, keeping the two documented
// limits jointly reachable.
const (
	maxBatchItems     = 256
	maxBatchBodyBytes = maxBatchItems * (maxQuestionBytes + 1024)
)

// batchResult is one element of the batch reply: the askResponse
// fields on success, or the error envelope's object (with the other
// fields zeroed) for an item the engine rejected.
type batchResult struct {
	askResponse
	Error *wireError `json:"error,omitempty"`
}

// handleAskBatch answers a JSON array of {session, question, options}
// items concurrently and replies with a same-length, same-order array.
// Per-item failures (an empty question, a canceled item) land in that
// item's error object; only a malformed, empty, oversized, or
// over-long batch fails the whole request. In cluster mode the items
// are grouped by owner node: the local group is served here, each
// remote group is relayed as a sub-batch, and the reply is reassembled
// in input order.
func (s *server) handleAskBatch(w http.ResponseWriter, r *http.Request) {
	if !s.ensureReady(w) || !s.allowClient(w, r) {
		return
	}
	var reqs []askRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBatchBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&reqs); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.fail(w, engine.Errf(engine.CodeInvalidRequest, "batch body exceeds %d bytes", maxBatchBodyBytes))
			return
		}
		s.fail(w, engine.Errf(engine.CodeInvalidRequest, "malformed request body: %v", err))
		return
	}
	if len(reqs) == 0 {
		s.fail(w, engine.Errf(engine.CodeInvalidRequest, "batch must not be empty"))
		return
	}
	if len(reqs) > maxBatchItems {
		s.fail(w, engine.Errf(engine.CodeInvalidRequest, "batch exceeds %d items", maxBatchItems))
		return
	}

	ctx, cancel := s.askContext(r)
	defer cancel()
	if s.cl != nil {
		if isForwarded(r) {
			s.cl.hopsIn.Add(1)
		} else {
			groups := map[string][]int{}
			for i, req := range reqs {
				owner := s.cl.owner(req.Session, req.Question)
				groups[owner] = append(groups[owner], i)
			}
			if len(groups) > 1 || groups[s.cl.self] == nil {
				s.clusterBatch(ctx, w, reqs, groups)
				return
			}
		}
	}

	results, err := s.serveBatch(ctx, reqs)
	if err != nil {
		s.fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, results)
}

// serveBatch runs a batch locally: per-item validation, group
// admission (one blocking slot plus any instantly-free ones), and the
// engine fan-out. The returned error is a whole-batch admission
// failure; per-item failures land in their result slots.
func (s *server) serveBatch(ctx context.Context, reqs []askRequest) ([]batchResult, error) {
	// Item-level validation failures (oversized question, unknown
	// option) land in that item's result slot — matching how the
	// engine reports an empty question — so one bad item never costs
	// the rest of the batch its answers. Pre-failed items are given an
	// empty question, which the engine rejects at validation without
	// touching the pipeline; their slot is overwritten below.
	items := make([]engine.Request, len(reqs))
	preErrs := make([]*wireError, len(reqs))
	for i, req := range reqs {
		if len(req.Question) > maxQuestionBytes {
			preErrs[i] = &wireError{
				Code:    string(engine.CodeInvalidRequest),
				Message: fmt.Sprintf("question exceeds %d bytes", maxQuestionBytes),
			}
			continue
		}
		opts, err := req.Options.engineOptions()
		if err != nil {
			preErrs[i] = &wireError{
				Code:    string(engine.ErrorCode(err)),
				Message: engine.ErrorMessage(err),
			}
			continue
		}
		items[i] = engine.Request{SessionID: req.Session, Question: req.Question, Options: opts}
	}

	// Admission: block for one worker slot (batches queue behind
	// singles the same way singles queue behind each other), then grab
	// as many more currently-free slots as the batch can use without
	// waiting. The fan-out width equals the slots held, so the
	// -workers bound holds globally across singles and concurrent
	// batches — under contention a batch degrades toward width 1
	// instead of multiplying the bound.
	if err := s.admit(ctx); err != nil {
		return nil, err
	}
	held := 1
acquire:
	for held < len(items) && held < cap(s.sem) {
		select {
		case s.sem <- struct{}{}:
			held++
		default:
			break acquire // no free slot: stop widening
		}
	}
	defer func() {
		for i := 0; i < held; i++ {
			<-s.sem
		}
	}()

	results := s.eng.AskBatch(ctx, items, held)
	out := make([]batchResult, len(results))
	for i, res := range results {
		if preErrs[i] != nil {
			out[i].Session = reqs[i].Session
			out[i].Error = preErrs[i]
			continue
		}
		if res.Err != nil {
			out[i].Session = reqs[i].Session
			out[i].Question = strings.TrimSpace(reqs[i].Question)
			out[i].Error = &wireError{
				Code:    string(engine.ErrorCode(res.Err)),
				Message: engine.ErrorMessage(res.Err),
			}
			continue
		}
		out[i].askResponse = toWire(res.Response)
	}
	return out, nil
}

// clusterBatch serves a batch whose items span owners: each owner's
// group runs concurrently — the local group through serveBatch, remote
// groups relayed as sub-batches with the hop guard — and the reply is
// stitched back together in input order. A failed relay degrades that
// group to local serving (same answer bytes, see the doc on
// clusterState); a peer's per-item error envelopes pass through
// verbatim.
func (s *server) clusterBatch(ctx context.Context, w http.ResponseWriter, reqs []askRequest, groups map[string][]int) {
	out := make([]json.RawMessage, len(reqs))
	var wg sync.WaitGroup
	for owner, idxs := range groups {
		wg.Add(1)
		go func(owner string, idxs []int) {
			defer wg.Done()
			sub := make([]askRequest, len(idxs))
			for j, i := range idxs {
				sub[j] = reqs[i]
			}
			if owner != s.cl.self {
				if body, merr := json.Marshal(sub); merr == nil {
					status, peerBody, ok := s.cl.forward(ctx, owner, "/v1/ask/batch", body)
					if ok && status == http.StatusOK {
						var items []json.RawMessage
						if json.Unmarshal(peerBody, &items) == nil && len(items) == len(idxs) {
							for j, i := range idxs {
								out[i] = items[j]
							}
							return
						}
					}
				}
				// Relay failed: serve the group locally below.
			}
			results, err := s.serveBatch(ctx, sub)
			if err != nil {
				we := &wireError{Code: string(engine.ErrorCode(err)), Message: engine.ErrorMessage(err)}
				for j, i := range idxs {
					raw, _ := json.Marshal(batchResult{askResponse: askResponse{Session: sub[j].Session}, Error: we})
					out[i] = raw
				}
				return
			}
			for j, i := range idxs {
				raw, _ := json.Marshal(results[j])
				out[i] = raw
			}
		}(owner, idxs)
	}
	wg.Wait()
	writeJSON(w, http.StatusOK, out)
}

// sessionResponse is the GET /v1/sessions/{id} reply.
type sessionResponse struct {
	Session string        `json:"session"`
	Turns   []engine.Turn `json:"turns"`
	// Memory is the session's conversation-memory view: summaries of
	// turns past the verbatim buffer, then recent turns (pass ?q= for
	// similarity recalls against an upcoming question).
	Memory string `json:"memory"`
}

func (s *server) handleSession(w http.ResponseWriter, r *http.Request) {
	if !s.ensureReady(w) {
		return
	}
	id := r.PathValue("id")
	// Cluster routing: sessions live on their owner node, so a
	// non-owner relays the read (same hop guard as asks). A failed
	// relay serves the local view — usually session-not-found, which is
	// the truthful local answer.
	if s.cl != nil {
		if isForwarded(r) {
			s.cl.hopsIn.Add(1)
		} else if owner := s.cl.ring.Load().Owner(routeKey(id, "")); owner != s.cl.self {
			ctx, cancel := s.askContext(r)
			status, peerBody, ok := s.cl.forwardGet(ctx, owner, r.URL.RequestURI())
			cancel()
			if ok {
				if status >= 400 {
					s.httpErrors.Add(1)
				}
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(status)
				_, _ = w.Write(peerBody)
				return
			}
		}
	}
	turns, mem, err := s.eng.SessionView(id, r.URL.Query().Get("q"))
	if err != nil {
		s.fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, sessionResponse{Session: id, Turns: turns, Memory: mem})
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// Liveness only: the process is up and the listener answers. Use
	// /readyz to learn whether the node can actually serve asks — the
	// listener now binds before the store build, so reachable no longer
	// implies ready.
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz is the readiness half of the health split: 503 until
// the store build completes and (in cluster mode) the ring is
// initialized and any checkpoint restored, so a rolling restart never
// routes traffic to a cold node.
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !s.ready.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "starting")
		return
	}
	fmt.Fprintln(w, "ready")
}

// boolMetric renders a bool as a 0/1 gauge value.
func boolMetric(b bool) int {
	if b {
		return 1
	}
	return 0
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if !s.ensureReady(w) {
		return
	}
	st := s.eng.Stats()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "cachemind_questions_total %d\n", st.Questions)
	fmt.Fprintf(w, "cachemind_asks_canceled_total %d\n", st.Canceled)
	fmt.Fprintf(w, "cachemind_cache_policy{policy=%q} 1\n", st.CachePolicy)
	fmt.Fprintf(w, "cachemind_semantic_threshold %.3f\n", st.SemanticThreshold)
	fmt.Fprintf(w, "cachemind_answer_cache_hits_total %d\n", st.CacheHits)
	// Tier-split hits: the aggregate and per-shard lines always sum to
	// the corresponding hits_total, so the exact/semantic split is a
	// partition of the same answered-ask count, never a re-count.
	fmt.Fprintf(w, "cachemind_cache_hits_total{tier=\"exact\"} %d\n", st.CacheExactHits)
	fmt.Fprintf(w, "cachemind_cache_hits_total{tier=\"semantic\"} %d\n", st.CacheSemanticHits)
	fmt.Fprintf(w, "cachemind_answer_cache_misses_total %d\n", st.CacheMisses)
	fmt.Fprintf(w, "cachemind_answer_cache_bypasses_total %d\n", st.CacheBypasses)
	fmt.Fprintf(w, "cachemind_answer_cache_entries %d\n", st.CacheEntries)
	// Per-shard hit/miss/entry lines, indexed as in Response.Shard, so
	// a skewed shard (hot key pile-up, budget clamping) is visible
	// without a debugger. Semantic hits count on the shard the query
	// hashed to, wherever the served neighbor resided.
	for i, cs := range st.CacheShards {
		fmt.Fprintf(w, "cachemind_answer_cache_shard_hits_total{shard=\"%d\"} %d\n", i, cs.Hits)
		fmt.Fprintf(w, "cachemind_cache_hits_total{shard=\"%d\",tier=\"exact\"} %d\n", i, cs.ExactHits)
		fmt.Fprintf(w, "cachemind_cache_hits_total{shard=\"%d\",tier=\"semantic\"} %d\n", i, cs.SemanticHits)
		fmt.Fprintf(w, "cachemind_answer_cache_shard_misses_total{shard=\"%d\"} %d\n", i, cs.Misses)
		fmt.Fprintf(w, "cachemind_answer_cache_shard_bypasses_total{shard=\"%d\"} %d\n", i, cs.Bypasses)
		fmt.Fprintf(w, "cachemind_answer_cache_shard_entries{shard=\"%d\"} %d\n", i, cs.Entries)
	}
	// Prefetcher counters (all zero when -prefetch is off; enabled says
	// which): covered is demand asks a speculative fill absorbed, wasted
	// is fills that never served anyone, dropped is observations or
	// predictions shed by the background-work budget.
	fmt.Fprintf(w, "cachemind_prefetch_enabled %d\n", boolMetric(st.Prefetch.Enabled))
	fmt.Fprintf(w, "cachemind_prefetch_predictions_total %d\n", st.Prefetch.Predictions)
	fmt.Fprintf(w, "cachemind_prefetch_issued_total %d\n", st.Prefetch.Issued)
	fmt.Fprintf(w, "cachemind_prefetch_covered_total %d\n", st.Prefetch.Covered)
	fmt.Fprintf(w, "cachemind_prefetch_wasted_total %d\n", st.Prefetch.Wasted)
	fmt.Fprintf(w, "cachemind_prefetch_dropped_total %d\n", st.Prefetch.Dropped)
	fmt.Fprintf(w, "cachemind_sessions_active %d\n", st.Sessions)
	fmt.Fprintf(w, "cachemind_sessions_evicted_total %d\n", st.SessionsEvicted)
	fmt.Fprintf(w, "cachemind_http_requests_total %d\n", s.httpRequests.Load())
	fmt.Fprintf(w, "cachemind_http_errors_total %d\n", s.httpErrors.Load())
	fmt.Fprintf(w, "cachemind_workers %d\n", cap(s.sem))
	fmt.Fprintf(w, "cachemind_request_timeout_seconds %.3f\n", s.reqTimeout.Seconds())
	fmt.Fprintf(w, "cachemind_engine_shards %d\n", st.Shards)
	fmt.Fprintf(w, "cachemind_uptime_seconds %d\n", int(time.Since(s.started).Seconds()))

	// Cluster layer: the scalar lines are always present (scrape-shape
	// stability — a standalone daemon reports enabled 0 and zeros); the
	// per-peer forwarding/breaker lines exist only in cluster mode.
	fmt.Fprintf(w, "cachemind_cluster_enabled %d\n", boolMetric(s.cl != nil))
	fmt.Fprintf(w, "cachemind_ratelimited_total %d\n", s.ratelimited.Load())
	fmt.Fprintf(w, "cachemind_ratelimit_clients %d\n", s.limiter.Clients())
	if s.cl != nil {
		ring := s.cl.ring.Load()
		fmt.Fprintf(w, "cachemind_cluster_nodes %d\n", ring.Size())
		fmt.Fprintf(w, "cachemind_cluster_node{self=%q} 1\n", s.cl.self)
		fmt.Fprintf(w, "cachemind_cluster_forwards_total %d\n", s.cl.forwards.Load())
		fmt.Fprintf(w, "cachemind_cluster_forward_retries_total %d\n", s.cl.forwardRetries.Load())
		fmt.Fprintf(w, "cachemind_cluster_forward_fallbacks_total %d\n", s.cl.fallbacks.Load())
		fmt.Fprintf(w, "cachemind_cluster_forwarded_in_total %d\n", s.cl.hopsIn.Load())
		fmt.Fprintf(w, "cachemind_cluster_membership_changes_total %d\n", s.cl.memberChanges.Load())
		fmt.Fprintf(w, "cachemind_cluster_handoff_sessions_out_total %d\n", s.cl.handoffSessionsOut.Load())
		fmt.Fprintf(w, "cachemind_cluster_handoff_entries_out_total %d\n", s.cl.handoffEntriesOut.Load())
		fmt.Fprintf(w, "cachemind_cluster_handoff_sessions_in_total %d\n", s.cl.handoffSessionsIn.Load())
		fmt.Fprintf(w, "cachemind_cluster_handoff_entries_in_total %d\n", s.cl.handoffEntriesIn.Load())
		for _, peer := range ring.Nodes() {
			if peer == s.cl.self {
				continue
			}
			state := s.cl.fwd.BreakerState(peer)
			fmt.Fprintf(w, "cachemind_cluster_peer_breaker{peer=%q,state=%q} 1\n", peer, state)
			fmt.Fprintf(w, "cachemind_cluster_peer_breaker_open{peer=%q} %d\n", peer, boolMetric(state == cluster.BreakerOpen))
		}
	}

	// Checkpointing: same shape rule — scalars always, detail when on.
	fmt.Fprintf(w, "cachemind_checkpoint_enabled %d\n", boolMetric(s.ckpt != nil))
	if s.ckpt != nil {
		cst := s.ckpt.Stats()
		fmt.Fprintf(w, "cachemind_checkpoint_writes_total %d\n", cst.Writes)
		fmt.Fprintf(w, "cachemind_checkpoint_write_errors_total %d\n", cst.WriteErrors)
		fmt.Fprintf(w, "cachemind_checkpoint_last_unix %d\n", cst.LastUnix)
		fmt.Fprintf(w, "cachemind_checkpoint_restored_sessions_total %d\n", cst.RestoredSessions)
		fmt.Fprintf(w, "cachemind_checkpoint_restored_entries_total %d\n", cst.RestoredEntries)
	}

	// Per-route request counts, responses by wire code, and latency
	// quantiles, in stable route order (this request's own metrics
	// handling isn't in its histogram yet — instrumentation records
	// after the handler returns).
	routes := make([]string, 0, len(s.routes))
	for route := range s.routes {
		routes = append(routes, route)
	}
	sort.Strings(routes)
	for _, route := range routes {
		st := s.routes[route]
		snap := st.hist.Snapshot()
		fmt.Fprintf(w, "cachemind_route_requests_total{route=%q} %d\n", route, snap.Count)
		for ci, wc := range wireCodes {
			fmt.Fprintf(w, "cachemind_route_responses_total{route=%q,code=%q} %d\n",
				route, wc.code, st.codes[ci].Load())
		}
		for _, q := range []float64{0.5, 0.95, 0.99} {
			fmt.Fprintf(w, "cachemind_route_latency_ms{route=%q,quantile=%q} %.3f\n",
				route, fmt.Sprintf("%g", q), float64(snap.Quantile(q).Microseconds())/1000)
		}
		fmt.Fprintf(w, "cachemind_route_latency_ms_max{route=%q} %.3f\n",
			route, float64(snap.Max.Microseconds())/1000)
	}
}

// wireError is the machine-readable half of the v1 error envelope.
type wireError struct {
	// Code is the engine.Code string ("invalid-request", "canceled",
	// ...).
	Code string `json:"code"`
	// Message is the human-readable explanation.
	Message string `json:"message"`
}

// errorEnvelope is the v1 JSON error envelope shared by every
// endpoint: {"error":{"code":...,"message":...}}.
type errorEnvelope struct {
	Error wireError `json:"error"`
}

// fail writes the typed error as the v1 envelope with its
// deterministic HTTP status.
func (s *server) fail(w http.ResponseWriter, err error) {
	s.httpErrors.Add(1)
	code := engine.ErrorCode(err)
	writeJSON(w, statusForCode(code), errorEnvelope{Error: wireError{
		Code:    string(code),
		Message: engine.ErrorMessage(err),
	}})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}
