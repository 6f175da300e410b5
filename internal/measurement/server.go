package measurement

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"pricesheriff/internal/admit"
	"pricesheriff/internal/coordinator"
	"pricesheriff/internal/currency"
	"pricesheriff/internal/htmlx"
	"pricesheriff/internal/obs"
	"pricesheriff/internal/peer"
	"pricesheriff/internal/retry"
	"pricesheriff/internal/shop"
	"pricesheriff/internal/store"
	"pricesheriff/internal/transport"
	"pricesheriff/internal/urlkey"
)

// CheckRequest is step 2 of the price-check protocol: the browser add-on
// sends the product URL, the Tags Path it built around the user's price
// selection, its own copy of the page, and the currency the user wants
// results converted to.
type CheckRequest struct {
	JobID         string         `json:"job_id"`
	URL           string         `json:"url"`
	TagsPath      htmlx.TagsPath `json:"tags_path"`
	InitiatorHTML string         `json:"initiator_html"`
	InitiatorID   string         `json:"initiator_id"`
	Currency      string         `json:"currency,omitempty"` // default EUR
	Day           float64        `json:"day"`
	// TraceID joins the server-side spans to a trace the submitter
	// started (empty: the server traces under the job ID). ParentSpanID,
	// when set, re-parents the server-side spans under that caller span
	// when they are exported back on the results answer that carries Done
	// — the span-export path for the asynchronous check protocol, where
	// the submit RPC returns long before the fan-out finishes.
	TraceID      string `json:"trace_id,omitempty"`
	ParentSpanID string `json:"parent_span,omitempty"`
	// Origin tags how the check was initiated: "" for a user-submitted
	// one-shot, "watch" for a scheduler-driven recurring check. Recorded
	// with the request row so longitudinal rows are separable in analysis.
	// On an attach request (ms.attach, where JobID names another check's
	// job) it carries the tier the Coordinator placed the caller in:
	// coordinator.SourceCoalesced says the job was in flight, so a server
	// that has not seen it yet waits for its submit instead of refusing.
	Origin string `json:"origin,omitempty"`
}

// Key names the question this check asks, for Coordinator.ScheduleCheck:
// two requests with equal keys want the same element of the same product
// page, in the same display currency, on the same simulated day. The
// Coordinator adds where the initiator is.
func (r *CheckRequest) Key() string {
	curr := r.Currency
	if curr == "" {
		curr = "EUR"
	}
	b := make([]byte, 0, len(r.URL)+len(curr)+48)
	b = append(b, urlkey.Canonical(r.URL)...)
	b = append(b, 0)
	b = strconv.AppendUint(b, r.TagsPath.Fingerprint(), 16)
	b = append(b, 0)
	b = append(b, curr...)
	b = append(b, 0)
	b = strconv.AppendFloat(b, r.Day, 'g', -1, 64)
	return string(b)
}

// ResultRow is one line of the Fig. 2 result page.
type ResultRow struct {
	Source     string  `json:"source"` // "You", "ipc-03-US", "peer ES", ...
	Kind       string  `json:"kind"`   // initiator | ipc | ppc
	PeerID     string  `json:"peer_id,omitempty"`
	Country    string  `json:"country,omitempty"`
	City       string  `json:"city,omitempty"`
	Original   string  `json:"original,omitempty"` // the raw price text
	Currency   string  `json:"currency,omitempty"`
	Amount     float64 `json:"amount,omitempty"`    // in detected currency
	Converted  float64 `json:"converted,omitempty"` // in requested currency
	Confidence string  `json:"confidence,omitempty"`
	Mode       string  `json:"mode,omitempty"` // PPC state mode
	Err        string  `json:"err,omitempty"`
}

// ResultsResponse answers one results request: rows arriving after
// `since`, plus the finish flag (Sect. 3.2: the browser waits "until the
// measurement server replies with a 'request finish' response"). Once
// Done, Spans carries the server-side span tree of the check so the
// submitter can stitch the remote work into its own trace.
type ResultsResponse struct {
	Rows  []ResultRow    `json:"rows"`
	Done  bool           `json:"done"`
	Spans []obs.WireSpan `json:"spans,omitempty"`
}

// PPCRequester issues remote page requests through the P2P relay;
// *peer.Requester implements it. The context bounds the relay wait: a
// canceled check abandons its pending page requests immediately.
type PPCRequester interface {
	RequestPage(ctx context.Context, peerID string, req *peer.PageRequest) (*peer.PageResponse, error)
}

// Fault-tolerance defaults; see the corresponding Server fields.
const (
	DefaultCheckDeadline = 2 * time.Minute
	DefaultCheckTTL      = 5 * time.Minute
	DefaultMaxChecks     = 4096
)

// Server is one Measurement server instance.
type Server struct {
	// OwnAddr is the address this server is registered under at the
	// Coordinator (used in heartbeats and job accounting).
	OwnAddr string
	Coord   *coordinator.Client // nil disables PPC lookup and job-done
	DB      store.Conn          // nil disables persistent recording
	IPCs    []*IPC
	Peers   PPCRequester // nil disables PPC fetches
	Rates   *currency.RateTable
	// Metrics instruments check processing (nil disables); share one
	// bundle across a server pool.
	Metrics *Metrics
	// Tracer records per-check span trees (nil disables).
	Tracer *obs.Tracer
	// Log records check lifecycle events, trace-correlated (nil disables).
	Log *obs.Logger

	// CheckDeadline bounds one whole check: when it expires, the job is
	// marked done with whatever rows have arrived — the deployed system's
	// partial-result behavior, where a check reports the vantage points
	// that answered in time (0 = DefaultCheckDeadline). Straggler rows
	// landing after the cut are dropped and counted.
	CheckDeadline time.Duration
	// VantageBudget bounds each vantage point's fetch including retries
	// (0 or larger than the check deadline = the check deadline).
	VantageBudget time.Duration
	// Retry drives per-vantage retries under jittered exponential backoff
	// (nil = a single attempt). Share one across a server pool.
	Retry *retry.Retrier
	// CheckTTL evicts a completed check once no results request has touched
	// it for this long, bounding the checks map under sustained traffic
	// (0 = DefaultCheckTTL). Evicted jobs answer ErrUnknownJob again.
	CheckTTL time.Duration
	// MaxChecks caps cached completed checks; beyond it the longest-idle
	// completed ones are evicted first (0 = DefaultMaxChecks).
	MaxChecks int
	// Admit bounds concurrent checks: past the in-flight cap submissions
	// queue FIFO, and doomed or excess ones are shed with
	// admit.ErrOverload before any work starts (nil disables admission
	// control). Share one controller per server.
	Admit *admit.Controller
	// Cache memoizes parsed DOMs and Tags-Path resolution tiers across
	// checks of the same shop template (nil disables; share one per
	// server pool). See htmlx.NewCache.
	Cache *htmlx.Cache

	mu     sync.Mutex
	checks map[string]*checkState
	// idle lists the completed checks, longest idle first: eviction pops
	// its front instead of searching the map.
	idle idleList
	// arrivals parks attach requests that reached this server before the
	// submit of the in-flight job they name; StartCheckCtx wakes them.
	arrivals   map[string]*arrival
	cacheStats htmlx.CacheStats // counters already published to Metrics
	rpc        *transport.Server
}

type checkState struct {
	id   string
	rows []ResultRow
	done bool
	// partial is why the check completed without its whole fan-out (the
	// causeLabel of its cut); empty for a complete check. Only complete
	// checks answer attach requests.
	partial string
	// finished is closed by markDone: waiting results requests park on it
	// instead of polling the done flag.
	finished chan struct{}
	doneAt   time.Time
	lastPoll time.Time
	cancel   context.CancelCauseFunc // aborts the running check

	// trace/parentSpan feed the span export on the first Done results
	// answer: the check's span tree, re-parented under the submitter's span.
	trace      *obs.Trace
	parentSpan string

	prev, next *checkState // neighbours in Server.idle once done
}

// idleList is the intrusive list of completed checks in idle order. Every
// touch moves a check to the back at the current time, so the order is the
// idleSince order without ever sorting.
type idleList struct {
	front, back *checkState
	n           int
}

func (l *idleList) pushBack(st *checkState) {
	st.prev, st.next = l.back, nil
	if l.back != nil {
		l.back.next = st
	} else {
		l.front = st
	}
	l.back = st
	l.n++
}

func (l *idleList) remove(st *checkState) {
	if st.prev != nil {
		st.prev.next = st.next
	} else {
		l.front = st.next
	}
	if st.next != nil {
		st.next.prev = st.prev
	} else {
		l.back = st.prev
	}
	st.prev, st.next = nil, nil
	l.n--
}

// arrival is the rendezvous of attach requests with a job's submit.
type arrival struct {
	ch      chan struct{} // closed when the job registers or is refused
	waiters int
}

// idleSince is the moment a completed check was last useful: its finish
// or its latest results request, whichever is later.
func (st *checkState) idleSince() time.Time {
	if st.lastPoll.After(st.doneAt) {
		return st.lastPoll
	}
	return st.doneAt
}

// Errors returned by the server.
var (
	ErrDuplicateJob = errors.New("measurement: job already running")
	// ErrCheckCanceled is the cancellation cause set by CancelCheck; rows
	// gathered before the cut are kept.
	ErrCheckCanceled = errors.New("measurement: check canceled by caller")
)

// Errors an attaching client tells apart on the far side of the wire (each
// carries a transport.RPCCoder code): the job is not, or no longer, known
// here; or it is, but finished without its whole fan-out and is not shared.
var (
	ErrUnknownJob     error = &codedError{"measurement: unknown job", "ms_unknown_job"}
	ErrSourcePartial  error = &codedError{"measurement: source check was cut by its deadline", "ms_source_partial"}
	ErrSourceCanceled error = &codedError{"measurement: source check was canceled", "ms_source_canceled"}
)

type codedError struct{ msg, code string }

func (e *codedError) Error() string   { return e.msg }
func (e *codedError) RPCCode() string { return e.code }

// New creates a Measurement server (no network listener; see NewServerOn).
func New(ownAddr string, rates *currency.RateTable) *Server {
	if rates == nil {
		rates = currency.DefaultRates()
	}
	return &Server{OwnAddr: ownAddr, Rates: rates, checks: make(map[string]*checkState)}
}

// Tables used by the DiffStorage/recording pipeline.
var (
	RequestsTable  = store.TableSpec{Name: "requests", Unique: []string{"job_id"}, Index: []string{"domain"}}
	ResponsesTable = store.TableSpec{Name: "responses", Index: []string{"job_id", "domain"}}
)

// EnsureTables creates the recording tables, tolerating pre-existing ones.
func EnsureTables(db store.Conn) error {
	for _, spec := range []store.TableSpec{RequestsTable, ResponsesTable} {
		if err := db.CreateTableCtx(context.Background(), spec); err != nil && !errors.Is(err, store.ErrTableExists) {
			return err
		}
	}
	return nil
}

// StartCheck begins processing a price check asynchronously; WaitResults
// (or AwaitResults) delivers the rows. It returns once the job is admitted.
func (s *Server) StartCheck(req *CheckRequest) error {
	return s.StartCheckCtx(context.Background(), req)
}

// StartCheckCtx is StartCheck under a context. The context bounds only
// admission: a submission queued behind the in-flight cap gives up when
// ctx dies, and one whose deadline cannot clear the queue is shed with
// admit.ErrOverload before any work starts. Once admitted, the check runs
// under its own lifetime — ended by the check deadline or CancelCheck —
// so a fast submit RPC returning does not kill the work it started.
func (s *Server) StartCheckCtx(ctx context.Context, req *CheckRequest) error {
	if req.JobID == "" || req.URL == "" {
		return errors.New("measurement: job id and url required")
	}
	if req.Currency == "" {
		req.Currency = "EUR"
	}
	release, err := s.Admit.Acquire(ctx)
	if err != nil {
		// Attach requests waiting for this job learn it is not coming.
		s.mu.Lock()
		s.announceLocked(req.JobID)
		s.mu.Unlock()
		return err
	}
	s.mu.Lock()
	if _, dup := s.checks[req.JobID]; dup {
		s.mu.Unlock()
		release()
		return ErrDuplicateJob
	}
	s.evictLocked(time.Now())
	// The check's identity outlives the check — as the checks key, in the
	// initiator's result row, on the trace — for as long as the completed
	// check stays cached, and off the binary wire each of these is a slice
	// of the one frame that also carries the initiator's whole page. Cloned
	// here (the job is accepted; nothing else reads req yet), a cached
	// check keeps a few dozen bytes instead of the page.
	req.JobID = strings.Clone(req.JobID)
	req.InitiatorID = strings.Clone(req.InitiatorID)
	req.TraceID = strings.Clone(req.TraceID)
	req.ParentSpanID = strings.Clone(req.ParentSpanID)
	cctx, cancel := context.WithCancelCause(context.Background())
	st := &checkState{id: req.JobID, cancel: cancel, finished: make(chan struct{})}
	s.checks[req.JobID] = st
	s.announceLocked(req.JobID)
	s.mu.Unlock()

	s.Metrics.checkStarted()
	go s.process(cctx, req, release)
	return nil
}

// CancelCheck aborts a running check: queued relay waits and in-flight
// vantage fetches stop, and the job completes immediately with the rows
// gathered so far (the same partial-result shape as a deadline cut).
// Canceling an already-completed check is a no-op.
func (s *Server) CancelCheck(jobID string) error {
	s.mu.Lock()
	st, ok := s.checks[jobID]
	var cancel context.CancelCauseFunc
	if ok && !st.done {
		cancel = st.cancel
	}
	s.mu.Unlock()
	if !ok {
		return ErrUnknownJob
	}
	if cancel != nil {
		cancel(ErrCheckCanceled)
	}
	return nil
}

// Pending returns the number of unfinished checks (the jobs column of the
// monitoring panel).
func (s *Server) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.checks) - s.idle.n
}

// evictLocked bounds the completed-check cache: completed checks idle
// past CheckTTL go first; if the map is still at MaxChecks, the
// longest-idle completed ones follow. Both come off the front of the idle
// list, so a submit pays for the evictions it causes and nothing else.
// In-flight checks are never evicted. Callers hold s.mu.
func (s *Server) evictLocked(now time.Time) {
	ttl := s.CheckTTL
	if ttl <= 0 {
		ttl = DefaultCheckTTL
	}
	maxChecks := s.MaxChecks
	if maxChecks <= 0 {
		maxChecks = DefaultMaxChecks
	}
	for st := s.idle.front; st != nil; st = s.idle.front {
		if now.Sub(st.idleSince()) <= ttl && len(s.checks) < maxChecks {
			return
		}
		s.idle.remove(st)
		delete(s.checks, st.id)
		s.Metrics.checkEvicted()
	}
}

// touchLocked counts one use of a completed check — a results answer or an
// attach — against its eviction. Callers hold s.mu.
func (s *Server) touchLocked(st *checkState, now time.Time) {
	st.lastPoll = now
	if st.done && s.checks[st.id] == st {
		s.idle.remove(st)
		s.idle.pushBack(st)
	}
}

// Results serves one non-waiting AJAX poll (the Sect. 3.2 surface): the
// rows past since and whether the job has finished.
func (s *Server) Results(jobID string, since int) (ResultsResponse, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.checks[jobID]
	if !ok {
		return ResultsResponse{}, ErrUnknownJob
	}
	return s.snapshotLocked(st, since), nil
}

// AwaitResults is Results that first parks until the job finishes — by
// completion, deadline cut or CancelCheck — or ctx dies, whichever comes
// first; a dead ctx answers with the rows gathered so far and Done unset.
// An unknown or evicted job answers ErrUnknownJob at once.
func (s *Server) AwaitResults(ctx context.Context, jobID string, since int) (ResultsResponse, error) {
	s.mu.Lock()
	st, ok := s.checks[jobID]
	s.mu.Unlock()
	if !ok {
		return ResultsResponse{}, ErrUnknownJob
	}
	select {
	case <-st.finished:
	case <-ctx.Done():
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshotLocked(st, since), nil
}

// snapshotLocked builds one results answer and counts as a poll for
// eviction. Callers hold s.mu.
func (s *Server) snapshotLocked(st *checkState, since int) ResultsResponse {
	s.touchLocked(st, time.Now())
	if since < 0 {
		since = 0
	}
	if since > len(st.rows) {
		since = len(st.rows)
	}
	rows := append([]ResultRow(nil), st.rows[since:]...)
	resp := ResultsResponse{Rows: rows, Done: st.done}
	if st.done && st.trace != nil {
		// The check is finished: ship the server-side span tree with the
		// first final answer so the submitter stitches the remote work —
		// fan-out, per-vantage fetches, persistence — into its own trace.
		// Once is enough (whoever asks again has them, or is not the
		// submitter), and the cached check stops holding the tree.
		if st.trace.Sampled() {
			resp.Spans = st.trace.Export(st.parentSpan, "measurement")
		}
		st.trace = nil
	}
	return resp
}

// AttachCheck answers a check that duplicates job req.JobID without running
// anything for it: the caller's own "You" row, extracted from the page it
// just loaded, followed by the job's vantage rows as the completed-check
// cache holds them — never the job's own initiator row, which is another
// user's. It parks until the job finishes or ctx dies. Only a complete
// check is shared: one cut by its deadline answers ErrSourcePartial, a
// canceled one ErrSourceCanceled, and a job this server does not (or no
// longer) know ErrUnknownJob — at once, unless req.Origin says the
// Coordinator saw the job in flight, in which case the attach has merely
// overtaken the job's submit and waits for it. Nothing is stored and no
// admission slot is taken: an attach costs one extraction and a wait.
func (s *Server) AttachCheck(ctx context.Context, req *CheckRequest) (ResultsResponse, error) {
	if req.JobID == "" || req.URL == "" {
		return ResultsResponse{}, errors.New("measurement: job id and url required")
	}
	if req.Currency == "" {
		req.Currency = "EUR"
	}
	st, err := s.awaitSubmitted(ctx, req.JobID, req.Origin == coordinator.SourceCoalesced)
	if err != nil {
		return ResultsResponse{}, err
	}
	// After the lookup, so that a refusal costs no parse; before the wait,
	// so that a running source hides it.
	own := s.extractRow(req, domainOf(req.URL), req.InitiatorHTML, ResultRow{
		Source: "You", Kind: "initiator", PeerID: req.InitiatorID,
	})
	select {
	case <-st.finished:
	case <-ctx.Done():
		return ResultsResponse{}, fmt.Errorf("measurement: attach to job %s: %w", req.JobID, context.Cause(ctx))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.checks[req.JobID] != st: // evicted between finishing and here
		return ResultsResponse{}, ErrUnknownJob
	case st.partial == "caller_cancel":
		return ResultsResponse{}, ErrSourceCanceled
	case st.partial != "":
		return ResultsResponse{}, ErrSourcePartial
	}
	s.touchLocked(st, time.Now())
	rows := make([]ResultRow, 1, len(st.rows))
	rows[0] = own
	for _, r := range st.rows {
		if r.Kind != "initiator" {
			rows = append(rows, r)
		}
	}
	return ResultsResponse{Rows: rows, Done: true}, nil
}

// awaitSubmitted returns the state of jobID. When the job is unknown and
// expected — the Coordinator placed the caller on it while it was in flight
// — it parks until the job's submit registers it (or is refused) or ctx
// dies; otherwise an unknown job is ErrUnknownJob at once.
func (s *Server) awaitSubmitted(ctx context.Context, jobID string, expected bool) (*checkState, error) {
	s.mu.Lock()
	st, ok := s.checks[jobID]
	if ok || !expected {
		s.mu.Unlock()
		if !ok {
			return nil, ErrUnknownJob
		}
		return st, nil
	}
	a := s.arrivals[jobID]
	if a == nil {
		if s.arrivals == nil {
			s.arrivals = make(map[string]*arrival)
		}
		a = &arrival{ch: make(chan struct{})}
		s.arrivals[jobID] = a
	}
	a.waiters++
	s.mu.Unlock()

	select {
	case <-a.ch:
	case <-ctx.Done():
		s.mu.Lock()
		if a.waiters--; a.waiters == 0 && s.arrivals[jobID] == a {
			delete(s.arrivals, jobID)
		}
		s.mu.Unlock()
		return nil, fmt.Errorf("measurement: attach to job %s: %w", jobID, context.Cause(ctx))
	}
	s.mu.Lock()
	st, ok = s.checks[jobID]
	s.mu.Unlock()
	if !ok {
		return nil, ErrUnknownJob // the submit was refused
	}
	return st, nil
}

// announceLocked wakes the attach requests parked on jobID: its submit has
// registered it, or been refused. Callers hold s.mu.
func (s *Server) announceLocked(jobID string) {
	if a := s.arrivals[jobID]; a != nil {
		close(a.ch)
		delete(s.arrivals, jobID)
	}
}

// WaitResults waits until done (test/CLI convenience).
func (s *Server) WaitResults(jobID string, timeout time.Duration) ([]ResultRow, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return s.WaitResultsCtx(ctx, jobID)
}

// WaitResultsCtx waits until the job finishes or ctx dies; on early exit
// it returns the rows gathered so far alongside the context's cause.
func (s *Server) WaitResultsCtx(ctx context.Context, jobID string) ([]ResultRow, error) {
	resp, err := s.AwaitResults(ctx, jobID, 0)
	if err != nil {
		return nil, err
	}
	if !resp.Done {
		return resp.Rows, fmt.Errorf("measurement: job %s incomplete: %w", jobID, context.Cause(ctx))
	}
	return resp.Rows, nil
}

func (s *Server) addRow(jobID string, row ResultRow) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.checks[jobID]
	if !ok {
		return
	}
	if st.done {
		// A straggler vantage point answered after the check deadline cut
		// the job: waiters already saw Done, so the row is dropped.
		s.Metrics.lateRow()
		return
	}
	st.rows = append(st.rows, row)
}

// markDone flags a check complete with the rows gathered so far — partial
// naming the cut when the fan-out did not finish — and wakes every parked
// results and attach request.
func (s *Server) markDone(jobID, partial string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if st, ok := s.checks[jobID]; ok && !st.done {
		st.done = true
		st.partial = partial
		st.doneAt = time.Now()
		s.idle.pushBack(st)
		close(st.finished)
	}
}

// process runs steps 3.1–5 for one job. ctx is the check's own lifetime
// (canceled by CancelCheck); release returns the admission slot.
func (s *Server) process(ctx context.Context, req *CheckRequest, release func()) {
	defer release()
	start := time.Now()
	domain := domainOf(req.URL)

	// Join the submitter's trace, or open our own under the job ID
	// (external add-ons don't carry trace IDs). The creator finishes it.
	var tr *obs.Trace
	owned := false
	if s.Tracer != nil {
		id := req.TraceID
		if id == "" {
			id = req.JobID
		}
		tr, owned = s.Tracer.Start(id, "check "+req.URL)
		tr.Annotate("job", req.JobID)
	}
	ctx = obs.WithTrace(ctx, tr)
	s.mu.Lock()
	if st, ok := s.checks[req.JobID]; ok {
		st.trace, st.parentSpan = tr, req.ParentSpanID
	}
	s.mu.Unlock()
	s.Log.Info(ctx, "check started", "job", req.JobID, "url", req.URL, "origin", req.Origin)

	// The initiator's own copy anchors the result page and DiffStorage.
	ext := tr.Span("extract", "source", "initiator")
	initRow := s.extractRow(req, domain, req.InitiatorHTML, ResultRow{
		Source: "You", Kind: "initiator", PeerID: req.InitiatorID,
	})
	if initRow.Err != "" {
		ext.Annotate("error", initRow.Err)
	}
	ext.End()
	s.addRow(req.JobID, initRow)

	var reqRowID int64
	if s.DB != nil {
		per := tr.Span("persist", "table", "requests")
		reqRowID, _ = s.DB.InsertCtx(obs.WithSpan(ctx, per), "requests", store.Row{
			"job_id": req.JobID, "domain": domain, "url": req.URL,
			"day": req.Day, "initiator_html": req.InitiatorHTML,
			"origin": req.Origin,
		})
		per.End()
	}

	// Batched recording: vantage rows accumulate here and land in the
	// store as one insert_batch round trip before the job reports done.
	// A straggler racing the flush falls back to its own insert.
	var rec *recorder
	if s.DB != nil {
		rec = &recorder{
			jobID: req.JobID, requestID: reqRowID, domain: domain,
			base: strings.Split(req.InitiatorHTML, "\n"),
		}
	}

	// Time budgets: the whole check is bounded by the deadline (after
	// which the job completes with the rows it has), and each vantage
	// point by its own budget covering the fetch plus every retry.
	deadline := s.CheckDeadline
	if deadline <= 0 {
		deadline = DefaultCheckDeadline
	}
	budget := s.VantageBudget
	if budget <= 0 || budget > deadline {
		budget = deadline
	}
	ctx, cancelCheck := context.WithDeadline(ctx, start.Add(deadline))
	defer cancelCheck()

	fanout := tr.Span("fanout")
	var wg sync.WaitGroup
	// Step 3.1: every IPC fetches in parallel.
	for _, ipc := range s.IPCs {
		wg.Add(1)
		go func(c *IPC) {
			defer wg.Done()
			sp := fanout.Child(c.ID, "kind", "ipc", "country", c.Country)
			t0 := time.Now()
			base := ResultRow{
				Source: c.ID, Kind: "ipc", PeerID: c.ID,
				Country: c.Country, City: c.City,
			}
			vctx, vcancel := context.WithTimeout(obs.WithSpan(ctx, sp), budget)
			defer vcancel()
			resp, retries, err := fetchVantage(vctx, s.Retry, func(fctx context.Context) (*shop.FetchResponse, error) {
				return c.Fetch(fctx, req.URL, req.Day)
			})
			s.Metrics.fanoutObserved("ipc", t0)
			s.Metrics.retried(retries)
			if err != nil {
				s.vantageFailed(ctx, vctx, req.JobID, base, sp, err)
				return
			}
			if resp.Status != 200 {
				base.Err = fmt.Sprintf("status %d", resp.Status)
				s.addRow(req.JobID, base)
				sp.Annotate("error", base.Err)
				sp.End()
				return
			}
			row := s.extractRow(req, domain, resp.HTML, base)
			s.addRow(req.JobID, row)
			s.record(obs.WithSpan(context.Background(), sp), rec, row, resp.HTML)
			sp.End()
		}(ipc)
	}

	// Step 3.2: the PPCs near the initiator fetch in parallel.
	if s.Coord != nil && s.Peers != nil {
		ppcs, err := s.Coord.JobPPCsCtx(obs.WithSpan(ctx, fanout), req.JobID)
		if err == nil {
			for _, p := range ppcs {
				wg.Add(1)
				go func(p coordinator.PeerInfo) {
					defer wg.Done()
					sp := fanout.Child(p.ID, "kind", "ppc", "country", p.Country)
					t0 := time.Now()
					base := ResultRow{
						Source: "peer " + p.Country, Kind: "ppc", PeerID: p.ID,
						Country: p.Country, City: p.City,
					}
					vctx, vcancel := context.WithTimeout(obs.WithSpan(ctx, sp), budget)
					defer vcancel()
					resp, retries, err := fetchVantage(vctx, s.Retry, func(fctx context.Context) (*peer.PageResponse, error) {
						return s.Peers.RequestPage(fctx, p.ID, &peer.PageRequest{URL: req.URL, Day: req.Day})
					})
					s.Metrics.fanoutObserved("ppc", t0)
					s.Metrics.retried(retries)
					if err != nil {
						s.vantageFailed(ctx, vctx, req.JobID, base, sp, err)
						return
					}
					if resp.Status != 200 {
						base.Err = fmt.Sprintf("status %d", resp.Status)
						s.addRow(req.JobID, base)
						sp.Annotate("error", base.Err)
						sp.End()
						return
					}
					// Over the binary relay the mode is a view of the frame
					// that carries the whole page; the row outlives it in the
					// completed-check cache.
					base.Mode = strings.Clone(resp.Mode)
					row := s.extractRow(req, domain, resp.HTML, base)
					s.addRow(req.JobID, row)
					s.record(obs.WithSpan(context.Background(), sp), rec, row, resp.HTML)
					sp.End()
				}(p)
			}
		}
	}

	// Wait for the fan-out, but never past the check's lifetime: when the
	// deadline expires or CancelCheck fires, the job completes with the
	// rows it has — straggler goroutines see the dead context, abort
	// promptly, and any rows they still produce are dropped as late.
	fanoutDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(fanoutDone)
	}()
	partial := ""
	select {
	case <-fanoutDone:
	case <-ctx.Done():
		partial = causeLabel(ctx)
		s.Metrics.partialCheck(partial)
		fanout.Annotate("partial", "true")
		fanout.Annotate("cause", partial)
		tr.Annotate("partial", "true")
		s.Log.Warn(ctx, "check partial", "job", req.JobID, "cause", partial)
	}
	fanout.End()
	s.flushBatch(rec, tr)
	// markDone wakes the waiting submitter at once, so everything it may
	// look at next — counters, the latency exemplar, the log record — is
	// published first.
	s.publishCacheStats()
	s.Metrics.checkCompleted(start, tr.ID())
	s.Log.Info(ctx, "check completed", "job", req.JobID,
		"elapsed_ms", time.Since(start).Milliseconds())
	s.markDone(req.JobID, partial)
	if s.Coord != nil {
		// Step 4. The report runs under its own bounded context: it must
		// outlive the check's (possibly dead) lifetime, but a mute
		// coordinator must not pin this goroutine forever.
		jctx, jcancel := context.WithTimeout(context.Background(), 10*time.Second)
		s.Coord.JobDoneCtx(jctx, req.JobID)
		jcancel()
	}
	if owned {
		tr.Finish()
	}
}

// vantageFailed records one failed vantage point: an error row, the
// proxy-timeout metric when the failure was a deadline (either the P2P
// request timeout or a transport call/vantage timeout), the retry-abort
// metric when the vantage's context died mid-sequence, and the span.
// checkCtx is the whole check's lifetime: a vantage still in flight when
// it ends is definitionally a straggler, so its row is dropped as late
// without racing the done flag.
func (s *Server) vantageFailed(checkCtx, ctx context.Context, jobID string, base ResultRow, sp *obs.Span, err error) {
	if errors.Is(err, peer.ErrRequestTimeout) || errors.Is(err, transport.ErrCallTimeout) {
		s.Metrics.proxyTimeout()
	}
	if ctx.Err() != nil {
		s.Metrics.retryAborted(causeLabel(ctx))
	}
	base.Err = err.Error()
	if checkCtx.Err() != nil {
		s.Metrics.lateRow()
		sp.EndErr(err)
		return
	}
	s.addRow(jobID, base)
	sp.EndErr(err)
}

// causeLabel classifies a dead context's cause for metric labels: the
// vantage/check budget ("deadline"), admission shedding ("overload"), or
// an explicit caller cancellation ("caller_cancel").
func causeLabel(ctx context.Context) string {
	cause := context.Cause(ctx)
	switch {
	case errors.Is(cause, admit.ErrOverload):
		return "overload"
	case errors.Is(cause, context.DeadlineExceeded):
		return "deadline"
	default:
		return "caller_cancel"
	}
}

// fetchVantage runs one vantage point's fetch under ctx (the per-vantage
// budget, a child of the check's lifetime) with bounded, jittered-backoff
// retries (nil retrier = single attempt). A fetch that outlives the
// budget is abandoned — the context's death rides the RPC to the far
// side, so the remote handler aborts too — and reported as a timeout
// matching transport.ErrCallTimeout.
func fetchVantage[T any](ctx context.Context, r *retry.Retrier, fetch func(context.Context) (T, error)) (T, int, error) {
	var resp T
	retries, err := r.DoCtx(ctx, func(int) error {
		got, err := awaitFetch(ctx, fetch)
		if err != nil {
			return err
		}
		resp = got
		return nil
	})
	return resp, retries, err
}

// awaitFetch runs fetch under ctx and normalizes its failure modes:
// application-level rejections (transport.RemoteError) are marked
// terminal so the retrier stops, and a budget expiry is reported as a
// timeout matching transport.ErrCallTimeout.
func awaitFetch[T any](ctx context.Context, fetch func(context.Context) (T, error)) (T, error) {
	resp, err := fetch(ctx)
	if err == nil {
		return resp, nil
	}
	if ctx.Err() != nil {
		var zero T
		cause := context.Cause(ctx)
		if errors.Is(cause, context.DeadlineExceeded) {
			cause = transport.ErrCallTimeout
		}
		return zero, fmt.Errorf("measurement: vantage fetch: %w", cause)
	}
	if transport.IsRemote(err) {
		return resp, retry.Terminal(err)
	}
	return resp, err
}

// extractRow locates the price in a page copy via the Tags Path, detects
// the currency, and converts to the requested one. With a Cache attached,
// byte-identical pages of the same domain reuse one parsed DOM and the
// path resolves on the tier that worked for the domain last time.
func (s *Server) extractRow(req *CheckRequest, domain, html string, base ResultRow) ResultRow {
	doc := s.Cache.Parse(domain, html)
	node, err := s.Cache.Locate(domain, req.TagsPath, doc)
	if err != nil {
		s.Metrics.extractFailure()
		base.Err = err.Error()
		return base
	}
	text := node.InnerText()
	det, err := currency.Detect(text)
	if err != nil {
		s.Metrics.extractFailure()
		base.Err = err.Error()
		base.Original = currency.Normalize(text)
		return base
	}
	base.Original = det.Original
	base.Currency = det.Code
	base.Amount = det.Amount
	base.Confidence = det.Confidence.String()
	if conv, ok := s.Rates.ConvertDetection(det, req.Currency); ok {
		base.Converted = conv
	} else {
		s.Metrics.conversionError()
		base.Converted = det.Amount
	}
	return base
}

// respBatch accumulates the response rows of one check for a single
// batched insert. Once taken (flushed), add refuses further rows so a
// straggler racing the flush falls back to a direct insert.
type respBatch struct {
	mu     sync.Mutex
	rows   []store.Row
	closed bool
}

// add queues a row; false means the batch already flushed.
func (b *respBatch) add(r store.Row) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return false
	}
	b.rows = append(b.rows, r)
	return true
}

// take closes the batch and returns the queued rows.
func (b *respBatch) take() []store.Row {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closed = true
	rows := b.rows
	b.rows = nil
	return rows
}

// recorder is what the stored response rows of one check share: the
// batch they are queued on, the initiator's page split into lines — the
// base every copy is diffed against — and the three column values that are
// the same in every row, converted to interface values once per check
// instead of once per row.
type recorder struct {
	batch                    respBatch
	base                     []string
	jobID, requestID, domain any
}

// record persists one proxy response: metadata plus the page as a diff
// against the initiator copy (DiffStorage). The row is queued for the
// check's single insert_batch; a straggler racing the flush is inserted
// directly. A nil recorder (no database) records nothing. ctx carries the
// vantage span for tracing only — recording stays unbounded so a row
// gathered in time is never lost to a dying vantage budget.
func (s *Server) record(ctx context.Context, rec *recorder, row ResultRow, html string) {
	if rec == nil {
		return
	}
	blob, _ := json.Marshal(diffLines(rec.base, html))
	r := store.Row{
		"job_id":     rec.jobID,
		"request_id": rec.requestID,
		"domain":     rec.domain,
		"source":     row.Source,
		"kind":       row.Kind,
		"peer_id":    row.PeerID,
		"country":    row.Country,
		"city":       row.City,
		"original":   row.Original,
		"currency":   row.Currency,
		"amount":     row.Amount,
		"converted":  row.Converted,
		"confidence": row.Confidence,
		"mode":       row.Mode,
		"err":        row.Err,
		"html_diff":  string(blob),
	}
	if rec.batch.add(r) {
		return
	}
	s.DB.InsertCtx(ctx, "responses", r)
}

// flushBatch writes the check's queued response rows in one batched
// insert before the job reports done. A failed batch degrades to per-row
// inserts so a transient transport error costs round trips, not data.
func (s *Server) flushBatch(rec *recorder, tr *obs.Trace) {
	if rec == nil {
		return
	}
	rows := rec.batch.take()
	if len(rows) == 0 {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	per := tr.Span("persist", "table", "responses")
	per.Annotate("rows", fmt.Sprint(len(rows)))
	defer per.End()
	if _, err := s.DB.InsertBatchCtx(obs.WithSpan(ctx, per), "responses", rows); err == nil {
		s.Metrics.batchFlushed(len(rows))
		return
	}
	for _, r := range rows {
		s.DB.InsertCtx(obs.WithSpan(ctx, per), "responses", r)
	}
}

// publishCacheStats moves the parse cache's cumulative counters into the
// metric registry; serialized under s.mu so deltas never go negative.
func (s *Server) publishCacheStats() {
	if s.Cache == nil || s.Metrics == nil {
		return
	}
	now := s.Cache.Stats()
	s.mu.Lock()
	prev := s.cacheStats
	s.cacheStats = now
	s.mu.Unlock()
	s.Metrics.cacheDelta(
		now.DocHits-prev.DocHits, now.DocMisses-prev.DocMisses,
		now.TierHits-prev.TierHits, now.TierMisses-prev.TierMisses,
	)
}

// domainOf extracts the canonical host from a product URL so rows
// group under one shop in DiffStorage and the whitelist. It delegates
// to urlkey — the same helper the shard router hashes — so grouping
// and placement can never disagree on what "one shop" means.
func domainOf(url string) string { return urlkey.Host(url) }

// --- network front-end ---

// RPCServer exposes a Server over the fabric.
type RPCServer struct {
	S   *Server
	rpc *transport.Server
}

// resultsReq asks for the rows past Since. With Wait set the server parks
// the request until the job finishes (or the request's context dies)
// instead of answering at once; without it, it is the AJAX poll shape.
type resultsReq struct {
	JobID string `json:"job_id"`
	Since int    `json:"since"`
	Wait  bool   `json:"wait,omitempty"`
}

// NewRPCServer wraps the measurement server on a listener. The server's
// OwnAddr is set to the listener address.
func NewRPCServer(s *Server, lis transport.Listener) *RPCServer {
	s.OwnAddr = lis.Addr()
	r := &RPCServer{S: s, rpc: transport.NewServer(lis)}
	r.rpc.SetProc("measurement")
	transport.HandleTyped(r.rpc, "ms.check", func(ctx context.Context, req *CheckRequest) (any, error) {
		return nil, s.StartCheckCtx(ctx, req)
	})
	transport.HandleTyped(r.rpc, "ms.results", func(ctx context.Context, req *resultsReq) (any, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// A waiting request parks this (per-call) handler goroutine; ctx
		// carries the caller's deadline, its cancel frame and the
		// connection's death, so an abandoned wait never outlives its caller.
		var resp ResultsResponse
		var err error
		if req.Wait {
			resp, err = s.AwaitResults(ctx, req.JobID, req.Since)
		} else {
			resp, err = s.Results(req.JobID, req.Since)
		}
		if err != nil {
			return nil, err
		}
		return &resp, nil
	})
	transport.HandleTyped(r.rpc, "ms.attach", func(ctx context.Context, req *CheckRequest) (any, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Parks this handler goroutine like a waiting ms.results does.
		resp, err := s.AttachCheck(ctx, req)
		if err != nil {
			return nil, err
		}
		return &resp, nil
	})
	transport.HandleTyped(r.rpc, "ms.cancel", func(ctx context.Context, req *resultsReq) (any, error) {
		return nil, s.CancelCheck(req.JobID)
	})
	return r
}

// Addr returns the dialable address.
func (r *RPCServer) Addr() string { return r.rpc.Addr() }

// Serve blocks accepting connections.
func (r *RPCServer) Serve() error { return r.rpc.Serve() }

// Close stops the front-end.
func (r *RPCServer) Close() error { return r.rpc.Close() }

// StartHeartbeats reports liveness, pending count, and admission state to
// the Coordinator every interval until the returned stop function is
// called. Queued submissions count as pending so the least-pending
// heuristic sees queue pressure, and an overloaded server flags itself as
// shedding so the scheduler routes around it.
func (s *Server) StartHeartbeats(interval time.Duration) (stop func()) {
	done := make(chan struct{})
	var once sync.Once
	go func() {
		ticker := time.NewTicker(interval) // lint:allow liveness heartbeat, not a request path
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				if s.Coord != nil {
					pending := s.Pending() + s.Admit.Queued()
					s.Coord.HeartbeatCtx(context.Background(), s.OwnAddr, pending, s.Admit.Overloaded())
				}
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// Client is the add-on's view of a Measurement server.
type Client struct {
	rpc *transport.Client
}

// DialMeasurement connects to a measurement server.
func DialMeasurement(netw transport.Network, addr string) (*Client, error) {
	rpc, err := transport.DialClient(netw, addr)
	if err != nil {
		return nil, err
	}
	return &Client{rpc: rpc}, nil
}

// CheckCtx submits a price check (step 3) under a context: the deadline
// rides the wire, so a doomed submission is shed by the server's admission
// control before any work starts.
func (c *Client) CheckCtx(ctx context.Context, req *CheckRequest) error {
	return c.rpc.CallCtx(ctx, "ms.check", req, nil)
}

// AttachCtx asks for the rows of the job the Coordinator placed this check
// on (req.JobID; source is the placement's tier) instead of submitting it:
// one round trip that returns when that job has finished. ctx bounds the
// wait. See Server.AttachCheck for what comes back and what is refused.
func (c *Client) AttachCtx(ctx context.Context, req *CheckRequest, source string) ([]ResultRow, error) {
	attach := *req
	attach.Origin = source
	var resp ResultsResponse
	err := c.rpc.CallCtx(ctx, "ms.attach", &attach, &resp)
	return resp.Rows, err
}

// ResultsCtx polls for rows once (the AJAX surface of step 5).
func (c *Client) ResultsCtx(ctx context.Context, jobID string, since int) (ResultsResponse, error) {
	return c.results(ctx, &resultsReq{JobID: jobID, Since: since})
}

func (c *Client) results(ctx context.Context, req *resultsReq) (ResultsResponse, error) {
	var resp ResultsResponse
	err := c.rpc.CallCtx(ctx, "ms.results", req, &resp)
	return resp, err
}

// Cancel aborts a running check server-side; the job completes with the
// rows gathered so far.
func (c *Client) Cancel(ctx context.Context, jobID string) error {
	return c.rpc.CallCtx(ctx, "ms.cancel", &resultsReq{JobID: jobID}, nil)
}

// partialFetchBudget bounds the one plain poll of WaitResultsCtx that
// collects the rows gathered so far once the caller's context is dead.
const partialFetchBudget = 2 * time.Second

// WaitResultsCtx is one waiting call: the server parks it and answers all
// rows the instant the job finishes — by completion, deadline cut or
// cancel. ctx bounds the wait (its deadline rides the wire); when it dies
// first, one plain poll under a short fresh context collects the rows
// gathered so far, returned alongside the context's cause so an
// interrupted caller still prints partial results. The deadline crosses
// the wire at millisecond grain, so the server's copy can run out a tick
// before ctx and answer not-done: the call is then simply made again —
// the server parks every ask until its own deadline, so nothing spins —
// and ctx decides. When the context carries a trace (obs.WithTrace), the
// server-side spans shipped with the final answer are stitched into it,
// completing the distributed trace.
func (c *Client) WaitResultsCtx(ctx context.Context, jobID string) ([]ResultRow, error) {
	var rows []ResultRow
	for ctx.Err() == nil {
		resp, err := c.results(ctx, &resultsReq{JobID: jobID, Since: len(rows), Wait: true})
		if err != nil {
			if ctx.Err() != nil {
				break
			}
			return rows, err
		}
		rows = append(rows, resp.Rows...)
		if resp.Done {
			obs.TraceFrom(ctx).ImportSpans(resp.Spans)
			return rows, nil
		}
	}
	pctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), partialFetchBudget)
	defer cancel()
	if resp, err := c.ResultsCtx(pctx, jobID, len(rows)); err == nil {
		rows = append(rows, resp.Rows...)
		if resp.Done { // finished in the instant the caller gave up
			obs.TraceFrom(ctx).ImportSpans(resp.Spans)
			return rows, nil
		}
	}
	return rows, fmt.Errorf("measurement: job %s incomplete: %w", jobID, context.Cause(ctx))
}

// Broken reports whether the connection has failed; whoever keeps a Client
// across checks re-dials when it has.
func (c *Client) Broken() bool { return c.rpc.Broken() }

// Close releases the connection.
func (c *Client) Close() error { return c.rpc.Close() }
