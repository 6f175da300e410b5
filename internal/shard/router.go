package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"

	"pricesheriff/internal/store"
	"pricesheriff/internal/transport"
)

// Options tunes a Router.
type Options struct {
	// PoolSize is the per-shard connection pool (default 2) — the same
	// "connection threads kept in memory" optimization as the single-store
	// client, paid once per shard.
	PoolSize int
	// Metrics instruments routing and rebalancing (nil disables).
	Metrics *Metrics
	// ShardedTables lists the tables placed by key; every other table
	// pins to the ring's Home member. Default DefaultShardedTables.
	ShardedTables []string
}

// Router implements the store client interface (store.Conn) over a
// consistent-hash ring of store servers. Keyed writes route to the
// owner shard; batches split per shard and fan out; keyless range
// queries scatter-gather. Row IDs are minted once, from the stripe of
// whichever engine first stores the row, and never change: a row that
// moves to another shard moves under its ID, so references between rows
// (responses.request_id → requests._id) survive any ring change as
// written. During a ring change (BeginUpdate → cutover) the router writes
// moved keys to their old and new owners so the migration can stream
// history underneath live traffic.
//
// One rule decides which copy of a sharded row counts: the one on the
// owner of the row's key under the router's current ring. Any other copy
// is invisible to reads and is what the hygiene sweep deletes.
type Router struct {
	fabric    transport.Network
	poolSize  int
	metrics   *Metrics
	sharded   map[string]bool
	procMerge map[string]MergeFunc

	// mu guards the routing epoch. Every operation holds it shared for
	// the whole call, so BeginUpdate's exclusive acquisition is a
	// barrier: once it returns, no in-flight single-ring write remains.
	mu   sync.RWMutex
	ring *Ring
	next *Ring // non-nil while a handoff window is open
	// strays is set while members of the current ring may hold copies
	// they do not own — a window is open, or a cutover or abort has not
	// been swept yet — and reads apply the ownership rule. Steady state
	// has no such copies and skips the check.
	strays  bool
	clients map[string]*store.Client
	specs   []store.TableSpec // tables created through this router, in order

	countMu sync.Mutex
	opCount map[string]int64 // per-member routed ops (scaler signal)
	lastRep *RebalanceReport // most recent completed ring change
}

// Router implements the store access surface.
var _ store.Conn = (*Router)(nil)

// NewRouter dials every ring member and returns a routing client.
func NewRouter(fabric transport.Network, ring *Ring, opts Options) (*Router, error) {
	if opts.PoolSize <= 0 {
		opts.PoolSize = 2
	}
	tables := opts.ShardedTables
	if tables == nil {
		tables = DefaultShardedTables
	}
	if err := ring.validate(); err != nil {
		return nil, fmt.Errorf("shard: ring v%d: %w", ring.Version, err)
	}
	r := &Router{
		fabric:    fabric,
		poolSize:  opts.PoolSize,
		metrics:   opts.Metrics,
		sharded:   make(map[string]bool, len(tables)),
		procMerge: standardMerges(),
		ring:      ring,
		clients:   make(map[string]*store.Client, len(ring.Members)),
		opCount:   make(map[string]int64),
	}
	for _, t := range tables {
		r.sharded[t] = true
	}
	for _, m := range ring.Members {
		c, err := store.Dial(fabric, m.Addr, opts.PoolSize)
		if err != nil {
			r.Close()
			return nil, fmt.Errorf("shard: dial %s (%s): %w", m.ID, m.Addr, err)
		}
		r.clients[m.ID] = c
	}
	r.metrics.ring(ring)
	return r, nil
}

// Ring returns the current placement epoch.
func (r *Router) Ring() *Ring {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.ring
}

// Rebalancing reports whether a handoff window is open.
func (r *Router) Rebalancing() bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.next != nil
}

// OpsTotal returns the total routed operations — the shard scaler's
// load signal.
func (r *Router) OpsTotal() int64 {
	r.countMu.Lock()
	defer r.countMu.Unlock()
	var n int64
	for _, c := range r.opCount {
		n += c
	}
	return n
}

// OpsByShard returns per-member routed operation counts.
func (r *Router) OpsByShard() map[string]int64 {
	r.countMu.Lock()
	defer r.countMu.Unlock()
	out := make(map[string]int64, len(r.opCount))
	for k, v := range r.opCount {
		out[k] = v
	}
	return out
}

func (r *Router) recordOp(memberID, method string) {
	r.countMu.Lock()
	r.opCount[memberID]++
	r.countMu.Unlock()
	r.metrics.op(memberID, method)
}

// client returns the dialed client of a member; callers hold r.mu.
func (r *Router) client(m Member) (*store.Client, error) {
	c, ok := r.clients[m.ID]
	if !ok {
		return nil, fmt.Errorf("shard: no client for member %s", m.ID)
	}
	return c, nil
}

// retryable reports whether a failed call is worth one more attempt:
// connection-level failures (the pool re-dials poisoned conns), but
// never application errors or expired contexts.
func retryable(ctx context.Context, err error) bool {
	return err != nil && ctx.Err() == nil && !transport.IsRemote(err)
}

// owns applies the ownership rule: m holds the copy of row that counts
// when m owns the row's key under the current ring. Callers hold r.mu.
func (r *Router) owns(m Member, table string, row store.Row) bool {
	return r.ring.Owner(KeyForRow(table, row)).ID == m.ID
}

// CreateTableCtx creates the table on every shard of the current (and,
// mid-handoff, the next) ring, tolerating shards that already have it.
func (r *Router) CreateTableCtx(ctx context.Context, spec store.TableSpec) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	known := false
	for _, s := range r.specs {
		if s.Name == spec.Name {
			known = true
			break
		}
	}
	if !known {
		r.specs = append(r.specs, spec)
	}
	for id, c := range r.clients {
		if err := c.CreateTableCtx(ctx, spec); err != nil && !errors.Is(err, store.ErrTableExists) {
			return fmt.Errorf("shard: create %s on %s: %w", spec.Name, id, err)
		}
	}
	if known {
		return store.ErrTableExists
	}
	return nil
}

// InsertCtx routes one row to its owner shard. During a handoff window
// a row whose owner changes is written to both (see InsertBatchCtx).
func (r *Router) InsertCtx(ctx context.Context, table string, row store.Row) (int64, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if !r.sharded[table] {
		return r.insertAt(ctx, r.ring.Home(), table, row)
	}
	key := KeyForRow(table, row)
	owner := r.ring.Owner(key)
	if r.next != nil && r.next.Owner(key).ID != owner.ID {
		ids, err := r.insertRows(ctx, table, []store.Row{row})
		if err != nil {
			return 0, err
		}
		return ids[0], nil
	}
	return r.insertAt(ctx, owner, table, row)
}

func (r *Router) insertAt(ctx context.Context, m Member, table string, row store.Row) (int64, error) {
	c, err := r.client(m)
	if err != nil {
		return 0, err
	}
	r.recordOp(m.ID, "insert")
	id, err := c.InsertCtx(ctx, table, row)
	if retryable(ctx, err) {
		r.metrics.retry()
		id, err = c.InsertCtx(ctx, table, row)
	}
	return id, err
}

// InsertBatchCtx splits a batch by owner shard and fans the pieces out,
// reassembling the acked IDs in input order. The single-store batch is
// atomic; a cross-shard batch cannot be, so on any piece failing the
// already-applied pieces are compensated with a batch delete before the
// error surfaces — the caller's row-at-a-time fallback then cannot
// duplicate rows.
func (r *Router) InsertBatchCtx(ctx context.Context, table string, rows []store.Row) ([]int64, error) {
	if len(rows) == 0 {
		return nil, nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	if !r.sharded[table] {
		c, err := r.client(r.ring.Home())
		if err != nil {
			return nil, err
		}
		r.recordOp(r.ring.Home().ID, "insert_batch")
		return c.InsertBatchCtx(ctx, table, rows)
	}
	return r.insertRows(ctx, table, rows)
}

// rowGroup is the part of a batch bound for one member.
type rowGroup struct {
	member Member
	rows   []store.Row
	pos    []int // each row's index in the slice that was split
}

// groupByOwner splits rows by their owner on ring, in first-seen order.
func groupByOwner(ring *Ring, table string, rows []store.Row) []*rowGroup {
	byID := make(map[string]*rowGroup)
	var groups []*rowGroup
	for i, row := range rows {
		m := ring.Owner(KeyForRow(table, row))
		g, ok := byID[m.ID]
		if !ok {
			g = &rowGroup{member: m}
			byID[m.ID] = g
			groups = append(groups, g)
		}
		g.rows = append(g.rows, row)
		g.pos = append(g.pos, i)
	}
	return groups
}

// insertRows writes a batch of sharded rows; callers hold r.mu. Each row
// is inserted on the owner of its key under the newest ring — the next
// one while a window is open — whose engine mints its ID. A row whose
// owner differs on the current ring is then copied there under the same
// ID, and only then acked: the copy on the current owner is the one reads
// see until cutover, the other the one they see after, and neither leg
// ever needs the other's ID translated. A failure on either leg deletes
// what the call already stored, so an unacked row leaves no copy behind.
func (r *Router) insertRows(ctx context.Context, table string, rows []store.Row) ([]int64, error) {
	newest := r.ring
	if r.next != nil {
		newest = r.next
	}
	ids := make([]int64, len(rows))
	type piece struct {
		member Member
		ids    []int64
	}
	var applied []piece
	fail := func(err error) ([]int64, error) {
		for _, p := range applied {
			r.compensate(p.member, table, p.ids)
		}
		return nil, err
	}
	for _, g := range groupByOwner(newest, table, rows) {
		c, err := r.client(g.member)
		if err != nil {
			return fail(err)
		}
		r.recordOp(g.member.ID, "insert_batch")
		got, err := c.InsertBatchCtx(ctx, table, g.rows)
		if err != nil {
			return fail(err)
		}
		for i, id := range got {
			ids[g.pos[i]] = id
		}
		applied = append(applied, piece{g.member, got})
	}
	if r.next == nil {
		return ids, nil
	}
	var copies []store.Row // the moving rows, each with the ID it was given
	var copyIDs []int64
	for i, row := range rows {
		key := KeyForRow(table, row)
		if r.ring.Owner(key).ID == r.next.Owner(key).ID {
			continue
		}
		cp := make(store.Row, len(row)+1)
		for k, v := range row {
			cp[k] = v
		}
		cp[store.ID] = float64(ids[i])
		copies, copyIDs = append(copies, cp), append(copyIDs, ids[i])
	}
	for _, g := range groupByOwner(r.ring, table, copies) {
		gids := make([]int64, len(g.pos))
		for i, p := range g.pos {
			gids[i] = copyIDs[p]
		}
		// Deleting by ID is harmless where the copy never landed, so the
		// piece counts as applied before the attempt.
		applied = append(applied, piece{g.member, gids})
		if _, err := r.importAt(ctx, g.member, table, g.rows); err != nil {
			return fail(err)
		}
	}
	return ids, nil
}

// importAt stores rows on a member under the IDs they carry (absent IDs
// only), returning the bytes shipped; callers hold r.mu.
func (r *Router) importAt(ctx context.Context, m Member, table string, rows []store.Row) (int, error) {
	c, err := r.client(m)
	if err != nil {
		return 0, err
	}
	blob, err := json.Marshal(rows)
	if err != nil {
		return 0, err
	}
	r.recordOp(m.ID, "import_rows")
	_, err = c.ImportRowsCtx(ctx, table, blob)
	return len(blob), err
}

// compensate best-effort deletes rows applied by a failed batch; the
// context is fresh because the caller's may already be dead.
func (r *Router) compensate(m Member, table string, ids []int64) {
	c, err := r.client(m)
	if err != nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), compensateTimeout)
	defer cancel()
	c.DeleteBatchCtx(ctx, table, ids)
}

// GetCtx fetches a row by ID. An ID says which engine minted the row, not
// where it lives now, so the router probes shards in ring order; probes
// past the first count as misroutes. Nothing in production fetches a
// sharded row by ID, which is why IDs do not pay for encoding a placement.
func (r *Router) GetCtx(ctx context.Context, table string, id int64) (store.Row, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	row, _, err := r.findRow(ctx, table, id)
	return row, err
}

// findRow locates (row, member) by probing, skipping copies the
// ownership rule rules out; callers hold r.mu.
func (r *Router) findRow(ctx context.Context, table string, id int64) (store.Row, Member, error) {
	if !r.sharded[table] {
		m := r.ring.Home()
		c, err := r.client(m)
		if err != nil {
			return nil, Member{}, err
		}
		r.recordOp(m.ID, "get")
		row, err := c.GetCtx(ctx, table, id)
		return row, m, err
	}
	for probe, m := range r.ring.Members {
		c, err := r.client(m)
		if err != nil {
			return nil, Member{}, err
		}
		r.recordOp(m.ID, "get")
		row, err := c.GetCtx(ctx, table, id)
		if err == nil && (!r.strays || r.owns(m, table, row)) {
			r.metrics.misroute(probe)
			return row, m, nil
		}
		if err != nil && !errors.Is(err, store.ErrNoRow) {
			return nil, Member{}, err
		}
	}
	return nil, Member{}, store.ErrNoRow
}

// UpdateCtx merges updates into a row located by probing (see GetCtx).
// During a handoff window the update is mirrored onto the row's copy on
// its next owner so the migrated data converges.
func (r *Router) UpdateCtx(ctx context.Context, table string, id int64, updates store.Row) error {
	return r.mutate(ctx, "update", table, id, func(c *store.Client) error {
		return c.UpdateCtx(ctx, table, id, updates)
	})
}

// DeleteCtx removes a row located by probing, mirroring onto its next
// owner's copy during a handoff window.
func (r *Router) DeleteCtx(ctx context.Context, table string, id int64) error {
	return r.mutate(ctx, "delete", table, id, func(c *store.Client) error {
		return c.DeleteCtx(ctx, table, id)
	})
}

// mutate applies a by-ID op to the row's authoritative copy and, while a
// window is open, to the copy under the same ID on the next ring's owner
// of the row's key. That copy may not exist yet — the migration has not
// streamed the row — which is not an error: the stream reads the source
// after this op.
func (r *Router) mutate(ctx context.Context, method, table string, id int64, op func(*store.Client) error) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	row, m, err := r.findRow(ctx, table, id)
	if err != nil {
		return err
	}
	c, err := r.client(m)
	if err != nil {
		return err
	}
	r.recordOp(m.ID, method)
	if err := op(c); err != nil {
		return err
	}
	if r.next == nil || !r.sharded[table] {
		return nil
	}
	tgt := r.next.Owner(KeyForRow(table, row))
	if tgt.ID == m.ID {
		return nil
	}
	tc, err := r.client(tgt)
	if err != nil {
		return err
	}
	r.recordOp(tgt.ID, method)
	if err := op(tc); err != nil && !errors.Is(err, store.ErrNoRow) {
		return fmt.Errorf("shard: mirror %s %s/%d onto %s: %w", method, table, id, tgt.ID, err)
	}
	return nil
}

// SelectCtx routes a keyed query to its owner shard and scatter-gathers
// keyless ones across the ring, merging with the query's order and
// limit. While strays may exist, scattered reads keep only the copy the
// ownership rule names, so a row on two members is never returned twice.
func (r *Router) SelectCtx(ctx context.Context, q store.Query) ([]store.Row, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if !r.sharded[q.Table] {
		m := r.ring.Home()
		c, err := r.client(m)
		if err != nil {
			return nil, err
		}
		r.recordOp(m.ID, "select")
		return c.SelectCtx(ctx, q)
	}
	if key := KeyForQuery(q); key != "" {
		m := r.ring.Owner(key)
		c, err := r.client(m)
		if err != nil {
			return nil, err
		}
		r.recordOp(m.ID, "select")
		rows, err := c.SelectCtx(ctx, q)
		if retryable(ctx, err) {
			r.metrics.retry()
			rows, err = c.SelectCtx(ctx, q)
		}
		return rows, err
	}

	// Scatter: each shard evaluates the query (shipping its own Limit as
	// an upper bound — unless strays would eat into it), the router merges.
	sq := q
	if r.strays {
		sq.Limit = 0
	}
	var merged []store.Row
	for _, m := range r.ring.Members {
		rows, err := r.selectAt(ctx, m, sq)
		if err != nil {
			return nil, err
		}
		merged = append(merged, rows...)
	}
	if q.OrderBy != "" {
		col, desc := q.OrderBy, q.Desc
		sort.SliceStable(merged, func(i, j int) bool {
			if desc {
				return store.LessValues(merged[j][col], merged[i][col])
			}
			return store.LessValues(merged[i][col], merged[j][col])
		})
	}
	if q.Limit > 0 && len(merged) > q.Limit {
		merged = merged[:q.Limit]
	}
	return merged, nil
}

// selectAt runs a query over a sharded table on one member and returns
// the rows that count there; callers hold r.mu.
func (r *Router) selectAt(ctx context.Context, m Member, q store.Query) ([]store.Row, error) {
	c, err := r.client(m)
	if err != nil {
		return nil, err
	}
	r.recordOp(m.ID, "select")
	rows, err := c.SelectCtx(ctx, q)
	if err != nil || !r.strays {
		return rows, err
	}
	kept := rows[:0]
	for _, row := range rows {
		if r.owns(m, q.Table, row) {
			kept = append(kept, row)
		}
	}
	return kept, nil
}

// MergeFunc folds the per-shard results of a fanned-out stored
// procedure into one answer. parts holds each shard's raw JSON reply in
// ring-member order.
type MergeFunc func(parts []json.RawMessage) (any, error)

// RegisterProcMerge installs the merge rule for a stored procedure so
// CallProcCtx can fan it out. Procedures without a rule fail loudly —
// silently returning one shard's answer would misreport N-shard data.
func (r *Router) RegisterProcMerge(proc string, merge MergeFunc) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.procMerge[proc] = merge
}

// CallProcCtx fans a stored procedure out to every shard and merges the
// answers with the procedure's registered rule.
func (r *Router) CallProcCtx(ctx context.Context, proc string, args any, out any) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	merge, ok := r.procMerge[proc]
	if !ok {
		return fmt.Errorf("shard: no merge rule for proc %q (RegisterProcMerge)", proc)
	}
	parts := make([]json.RawMessage, 0, len(r.ring.Members))
	for _, m := range r.ring.Members {
		c, err := r.client(m)
		if err != nil {
			return err
		}
		r.recordOp(m.ID, "call")
		var raw json.RawMessage
		if err := c.CallProcCtx(ctx, proc, args, &raw); err != nil {
			return err
		}
		parts = append(parts, raw)
	}
	mergedVal, err := merge(parts)
	if err != nil {
		return err
	}
	if out == nil {
		return nil
	}
	blob, err := json.Marshal(mergedVal)
	if err != nil {
		return err
	}
	return json.Unmarshal(blob, out)
}

// standardMerges knows the three standard procs of the measurement
// plane.
func standardMerges() map[string]MergeFunc {
	return map[string]MergeFunc{
		// Per-domain counts sum across shards.
		"responses_by_domain": func(parts []json.RawMessage) (any, error) {
			total := make(map[string]int)
			for _, p := range parts {
				var m map[string]int
				if err := json.Unmarshal(p, &m); err != nil {
					return nil, err
				}
				for k, v := range m {
					total[k] += v
				}
			}
			return total, nil
		},
		// One job's rows colocate, but merging min/max is correct even if
		// they didn't.
		"price_spread": func(parts []json.RawMessage) (any, error) {
			var out spreadShape
			for _, p := range parts {
				var s spreadShape
				if err := json.Unmarshal(p, &s); err != nil {
					return nil, err
				}
				if s.Responses == 0 {
					continue
				}
				if out.Responses == 0 || s.MinEUR < out.MinEUR {
					out.MinEUR = s.MinEUR
				}
				if s.MaxEUR > out.MaxEUR {
					out.MaxEUR = s.MaxEUR
				}
				out.Responses += s.Responses
				out.JobID = s.JobID
			}
			return out, nil
		},
		// Deletion counts sum.
		"scrub_pii": func(parts []json.RawMessage) (any, error) {
			var out scrubShape
			for _, p := range parts {
				var s scrubShape
				if err := json.Unmarshal(p, &s); err != nil {
					return nil, err
				}
				out.RequestsDeleted += s.RequestsDeleted
				out.ResponsesDeleted += s.ResponsesDeleted
			}
			return out, nil
		},
	}
}

// spreadShape mirrors measurement.SpreadResult without importing the
// package (measurement already imports store; the router stays below
// it in the dependency order).
type spreadShape struct {
	JobID     string  `json:"job_id"`
	Responses int     `json:"responses"`
	MinEUR    float64 `json:"min_eur"`
	MaxEUR    float64 `json:"max_eur"`
}

// scrubShape mirrors measurement.ScrubReport.
type scrubShape struct {
	RequestsDeleted  int `json:"requests_deleted"`
	ResponsesDeleted int `json:"responses_deleted"`
}

// CountsCtx sums per-table row counts across the ring — the shard
// status surface. Mid-handoff the totals include in-flight copies.
func (r *Router) CountsCtx(ctx context.Context) (map[string]int, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	total := make(map[string]int)
	for _, m := range r.ring.Members {
		c, err := r.client(m)
		if err != nil {
			return nil, err
		}
		counts, err := c.CountsCtx(ctx)
		if err != nil {
			return nil, err
		}
		for t, n := range counts {
			total[t] += n
		}
	}
	return total, nil
}

// Status is the admin view of the data plane (the /shards.json document and
// sheriffctl shards).
type Status struct {
	RingVersion int64            `json:"ring_version"`
	Rebalancing bool             `json:"rebalancing"`
	LastChange  *RebalanceReport `json:"last_change,omitempty"`
	Shards      []MemberStatus   `json:"shards"`
}

// MemberStatus describes one shard in a Status.
type MemberStatus struct {
	ID    string         `json:"id"`
	Addr  string         `json:"addr"`
	Share float64        `json:"share"` // fraction of the key space owned
	Ops   int64          `json:"ops"`   // ops this router sent here
	Keys  map[string]int `json:"keys"`  // per-table row counts
}

// Status snapshots ring membership, key-space shares, per-shard routed
// ops and row counts, and the last completed ring change.
func (r *Router) Status(ctx context.Context) (*Status, error) {
	ring := r.Ring()
	shares := ring.Shares()
	ops := r.OpsByShard()
	counts, err := r.CountsByShard(ctx)
	if err != nil {
		return nil, err
	}
	r.countMu.Lock()
	last := r.lastRep
	r.countMu.Unlock()
	st := &Status{RingVersion: ring.Version, Rebalancing: r.Rebalancing(), LastChange: last}
	for _, m := range ring.Members {
		st.Shards = append(st.Shards, MemberStatus{
			ID: m.ID, Addr: m.Addr, Share: shares[m.ID], Ops: ops[m.ID], Keys: counts[m.ID],
		})
	}
	return st, nil
}

// CountsByShard returns per-member per-table row counts — the status
// surface behind the admin UI's /shards.json and sheriffctl shards.
func (r *Router) CountsByShard(ctx context.Context) (map[string]map[string]int, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]map[string]int, len(r.ring.Members))
	for _, m := range r.ring.Members {
		c, err := r.client(m)
		if err != nil {
			return nil, err
		}
		counts, err := c.CountsCtx(ctx)
		if err != nil {
			return nil, err
		}
		out[m.ID] = counts
	}
	return out, nil
}

// ExportCtx downloads a merged snapshot of the whole plane: unsharded
// tables from the Home shard, sharded tables gathered from every member
// and put in ID order. Rows keep their IDs, so the joins between them hold
// in the snapshot as they do in the plane.
func (r *Router) ExportCtx(ctx context.Context) (*store.Snapshot, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	merged := &store.Snapshot{}
	tableIdx := make(map[string]int)
	home := r.ring.Home()
	for _, m := range r.ring.Members {
		c, err := r.client(m)
		if err != nil {
			return nil, err
		}
		r.recordOp(m.ID, "export")
		snap, err := c.ExportCtx(ctx)
		if err != nil {
			return nil, err
		}
		for _, ts := range snap.Tables {
			name := ts.Spec.Name
			if !r.sharded[name] && m.ID != home.ID {
				continue // unsharded tables live on Home only
			}
			ti, ok := tableIdx[name]
			if !ok {
				ti = len(merged.Tables)
				tableIdx[name] = ti
				merged.Tables = append(merged.Tables, store.TableSnapshot{Spec: ts.Spec})
			}
			mt := &merged.Tables[ti]
			if ts.MaxID > mt.MaxID {
				mt.MaxID = ts.MaxID
			}
			for _, row := range ts.Rows {
				if r.strays && r.sharded[name] && !r.owns(m, name, row) {
					continue
				}
				mt.Rows = append(mt.Rows, row)
			}
		}
	}
	for _, mt := range merged.Tables {
		if rows := mt.Rows; r.sharded[mt.Spec.Name] {
			sort.Slice(rows, func(i, j int) bool { return store.RowID(rows[i]) < store.RowID(rows[j]) })
		}
	}
	return merged, nil
}

// Close releases every shard's connection pool.
func (r *Router) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var firstErr error
	for _, c := range r.clients {
		if err := c.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	r.clients = make(map[string]*store.Client)
	return firstErr
}
