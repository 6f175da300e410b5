package shard

import (
	"context"
	"errors"
	"fmt"
	"time"

	"pricesheriff/internal/store"
)

// compensateTimeout bounds the best-effort deletes that unwind a failed
// cross-shard batch.
const compensateTimeout = 5 * time.Second

// BeginUpdate opens a handoff window onto the next ring epoch: new
// members are dialed, and the exclusive lock acquisition is a barrier —
// once it returns, every in-flight single-ring write has completed and
// all subsequent writes of moved keys land on both owners. Core calls
// this on every router of the plane before the lead router migrates.
func (r *Router) BeginUpdate(next *Ring) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.next != nil {
		return fmt.Errorf("shard: handoff window already open (v%d→v%d)", r.ring.Version, r.next.Version)
	}
	if next.Version <= r.ring.Version {
		return fmt.Errorf("shard: stale ring update v%d (have v%d)", next.Version, r.ring.Version)
	}
	if err := next.validate(); err != nil {
		return fmt.Errorf("shard: ring v%d: %w", next.Version, err)
	}
	for _, m := range next.Members {
		if _, ok := r.clients[m.ID]; ok {
			continue
		}
		c, err := store.Dial(r.fabric, m.Addr, r.poolSize)
		if err != nil {
			r.releaseClients(r.ring)
			return fmt.Errorf("shard: dial new member %s (%s): %w", m.ID, m.Addr, err)
		}
		r.clients[m.ID] = c
		// New members need the plane's tables before any dual-write.
		for _, spec := range r.specs {
			ctx, cancel := context.WithTimeout(context.Background(), compensateTimeout)
			err := c.CreateTableCtx(ctx, spec)
			cancel()
			if err != nil && !errors.Is(err, store.ErrTableExists) {
				r.releaseClients(r.ring)
				return fmt.Errorf("shard: create %s on new member %s: %w", spec.Name, m.ID, err)
			}
		}
	}
	r.next = next
	r.strays = true
	r.metrics.window(true)
	return nil
}

// releaseClients closes the clients of members not on keep; callers hold
// r.mu exclusively.
func (r *Router) releaseClients(keep *Ring) {
	for id, c := range r.clients {
		if _, ok := keep.Member(id); !ok {
			c.Close()
			delete(r.clients, id)
		}
	}
}

// cutover makes the next ring current and releases the clients of
// retired members; callers hold r.mu exclusively. The ownership rule now
// names the copies on the new owners; the old owners' copies are strays
// until swept.
func (r *Router) cutover() {
	if r.next == nil {
		return
	}
	r.ring, r.next = r.next, nil
	r.releaseClients(r.ring)
	r.metrics.ring(r.ring)
	r.metrics.window(false)
}

// AbortUpdate discards an open window: the current ring stays, and
// clients dialed for members that were only on the next ring are
// released. Rows already copied onto members of the current ring are
// strays there — invisible — until a hygiene sweep deletes them.
func (r *Router) AbortUpdate() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.next == nil {
		return
	}
	r.next = nil
	r.releaseClients(r.ring)
	r.metrics.window(false)
}

// RebalanceReport summarizes one ring change.
type RebalanceReport struct {
	FromVersion  int64 `json:"from_version"`
	ToVersion    int64 `json:"to_version"`
	KeysMoved    int   `json:"keys_moved"`
	BytesMoved   int   `json:"bytes_moved"`
	Reaped       int   `json:"reaped"`        // strays of an earlier window, swept before this one
	SourcesFreed int   `json:"sources_freed"` // copies left on old owners, swept after cutover
}

// Rebalance moves the plane from the router's current ring to next. It
// is the single-router form of FleetRebalance.
func (r *Router) Rebalance(ctx context.Context, next *Ring) (*RebalanceReport, error) {
	return FleetRebalance(ctx, []*Router{r}, next)
}

// FleetRebalance moves a plane served by several routers (core runs one
// per measurement server plus the system's own) to the next ring: sweep
// the strays of any earlier aborted window, open a handoff window on
// every router, copy every row whose owner changes to its new owner
// under the ID it has (live writes through any router land on both
// owners underneath), cut every router over at once, and sweep the
// copies left on the old owners. The first router is the lead: it
// performs the sweeps and the migration.
//
// All routers must serve the same ring epoch and have no open window —
// the caller serializes ring changes.
func FleetRebalance(ctx context.Context, routers []*Router, next *Ring) (*RebalanceReport, error) {
	if len(routers) == 0 {
		return nil, fmt.Errorf("shard: rebalance with no routers")
	}
	lead := routers[0]
	rep := &RebalanceReport{FromVersion: lead.Ring().Version, ToVersion: next.Version}
	var err error
	if rep.Reaped, err = sweepFleet(ctx, routers); err != nil {
		return nil, fmt.Errorf("shard: hygiene sweep: %w", err)
	}
	abort := func(err error) (*RebalanceReport, error) {
		for _, r := range routers {
			r.AbortUpdate()
		}
		// A failed sweep leaves the routers filtering reads; the next
		// rebalance starts with another attempt.
		sweepFleet(ctx, routers)
		return nil, err
	}
	for _, r := range routers {
		if err := r.BeginUpdate(next); err != nil {
			return abort(err)
		}
	}
	if err := lead.migrate(ctx, next, rep); err != nil {
		return abort(err)
	}
	// One barrier for the whole fleet: no router still reads by the old
	// ring while another writes by the new one alone.
	fleetBarrier(routers, func() {
		for _, r := range routers {
			r.cutover()
		}
	})
	rep.SourcesFreed, _ = sweepFleet(ctx, routers)
	lead.countMu.Lock()
	lead.lastRep = rep
	lead.countMu.Unlock()
	return rep, nil
}

// fleetBarrier holds every router's exclusive routing lock at once,
// runs f, and releases. Lock order follows the slice; nothing else ever
// holds two routers' locks, so this cannot deadlock.
func fleetBarrier(routers []*Router, f func()) {
	for _, r := range routers {
		r.mu.Lock()
	}
	f()
	for i := len(routers) - 1; i >= 0; i-- {
		routers[i].mu.Unlock()
	}
}

// sweepFleet has the lead router delete every stray on the current ring
// and, when that succeeded, tells every router that reads need no
// ownership check any more.
func sweepFleet(ctx context.Context, routers []*Router) (int, error) {
	reaped, err := routers[0].hygieneSweep(ctx)
	if err != nil {
		return reaped, err
	}
	for _, r := range routers {
		r.mu.Lock()
		if r.next == nil {
			r.strays = false
		}
		r.mu.Unlock()
	}
	return reaped, nil
}

// hygieneSweep deletes sharded rows sitting on a member that does not
// own their key under the current ring: the old owners' copies after a
// cutover, and whatever a window that aborted or crashed had copied.
// Writes outside a window go to the key's owner only, so the sweep never
// races a row being acked. Steady state has no strays.
func (r *Router) hygieneSweep(ctx context.Context) (int, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.next != nil {
		return 0, fmt.Errorf("handoff window open")
	}
	reaped := 0
	for _, m := range r.ring.Members {
		c, err := r.client(m)
		if err != nil {
			return reaped, err
		}
		for table := range r.sharded {
			rows, err := c.SelectCtx(ctx, store.Query{Table: table})
			if errors.Is(err, store.ErrNoTable) {
				continue
			}
			if err != nil {
				return reaped, err
			}
			var stray []int64
			for _, row := range rows {
				if r.owns(m, table, row) {
					continue
				}
				if id := store.RowID(row); id > 0 {
					stray = append(stray, id)
				}
			}
			n, err := c.DeleteBatchCtx(ctx, table, stray)
			if err != nil {
				return reaped, err
			}
			reaped += n
		}
	}
	return reaped, nil
}

// migrate copies every row whose owner changes to its new owner: per
// current member and sharded table, read the rows the member owns, keep
// those whose key the next ring gives to someone else, and import them
// there under their IDs. The import skips IDs already present — rows a
// dual-write delivered, on which live updates are being mirrored — so
// re-sending is harmless and nothing needs remembering between steps.
func (r *Router) migrate(ctx context.Context, next *Ring, rep *RebalanceReport) error {
	// The routing lock is taken per call, as any operation takes it, not
	// across the migration: a writer queued behind a long read hold would
	// stall every router operation behind it.
	locked := func(f func() error) error {
		r.mu.RLock()
		defer r.mu.RUnlock()
		return f()
	}
	for _, src := range r.Ring().Members {
		for table := range r.sharded {
			var rows []store.Row
			err := locked(func() (err error) {
				rows, err = r.selectAt(ctx, src, store.Query{Table: table})
				return err
			})
			if errors.Is(err, store.ErrNoTable) {
				continue
			}
			if err != nil {
				return fmt.Errorf("read %s on %s: %w", table, src.ID, err)
			}
			moving := rows[:0]
			for _, row := range rows {
				if next.Owner(KeyForRow(table, row)).ID != src.ID {
					moving = append(moving, row)
				}
			}
			for _, g := range groupByOwner(next, table, moving) {
				var n int
				err := locked(func() (err error) {
					n, err = r.importAt(ctx, g.member, table, g.rows)
					return err
				})
				if err != nil {
					return fmt.Errorf("import %s → %s: %w", table, g.member.ID, err)
				}
				rep.KeysMoved += len(g.rows)
				rep.BytesMoved += n
				r.metrics.moved(len(g.rows), n)
			}
		}
	}
	return nil
}
