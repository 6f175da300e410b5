package shard

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"pricesheriff/internal/measurement"
	"pricesheriff/internal/store"
	"pricesheriff/internal/transport"
)

var (
	reqSpec  = store.TableSpec{Name: "requests", Unique: []string{"job_id"}, Index: []string{"domain"}}
	respSpec = store.TableSpec{Name: "responses", Index: []string{"job_id", "domain"}}
)

// testPlane is a fleet of store servers on one in-process fabric.
type testPlane struct {
	t        *testing.T
	netw     *transport.Inproc
	dbs      map[string]*store.DB
	srvs     map[string]*store.Server
	ordinals int // next engine ordinal; never reused, as core issues them
}

func newTestPlane(t *testing.T, ids ...string) (*testPlane, []Member) {
	t.Helper()
	p := &testPlane{
		t:    t,
		netw: transport.NewInproc(),
		dbs:  make(map[string]*store.DB),
		srvs: make(map[string]*store.Server),
	}
	var ms []Member
	for _, id := range ids {
		ms = append(ms, p.addShard(id))
	}
	t.Cleanup(p.close)
	return p, ms
}

func (p *testPlane) addShard(id string) Member {
	p.t.Helper()
	m := Member{ID: id, Ordinal: p.ordinals}
	p.ordinals++
	db, err := store.NewPlaneDB(m.Ordinal, store.Options{})
	if err != nil {
		p.t.Fatal(err)
	}
	measurement.RegisterStandardProcs(db)
	lis, err := p.netw.Listen("")
	if err != nil {
		p.t.Fatal(err)
	}
	srv := store.NewServer(db, lis)
	go srv.Serve()
	p.dbs[id] = db
	p.srvs[id] = srv
	m.Addr = srv.Addr()
	return m
}

func (p *testPlane) close() {
	for _, s := range p.srvs {
		s.Close()
	}
}

func (p *testPlane) router(ring *Ring) *Router {
	p.t.Helper()
	r, err := NewRouter(p.netw, ring, Options{PoolSize: 2})
	if err != nil {
		p.t.Fatal(err)
	}
	p.t.Cleanup(func() { r.Close() })
	ctx := context.Background()
	if err := r.CreateTableCtx(ctx, reqSpec); err != nil {
		p.t.Fatal(err)
	}
	if err := r.CreateTableCtx(ctx, respSpec); err != nil {
		p.t.Fatal(err)
	}
	return r
}

// numericID reads a numeric column as an ID (ok when positive).
func numericID(v any) (int64, bool) {
	f, _ := v.(float64)
	return int64(f), f > 0
}

func reqRow(job, domain string) store.Row {
	return store.Row{"job_id": job, "url": "https://" + domain + "/p/" + job, "domain": domain}
}

func TestRouterKeyedPlacement(t *testing.T) {
	p, ms := newTestPlane(t, "shard-0", "shard-1")
	ring := NewRing(42, 32, ms)
	r := p.router(ring)
	ctx := context.Background()

	want := map[string]int{}
	for i := 0; i < 40; i++ {
		domain := fmt.Sprintf("shop%d.example.com", i)
		row := reqRow(fmt.Sprintf("j%d", i), domain)
		if _, err := r.InsertCtx(ctx, "requests", row); err != nil {
			t.Fatal(err)
		}
		want[ring.Owner(KeyForRow("requests", row)).ID]++
	}
	for id, db := range p.dbs {
		if got := db.Counts()["requests"]; got != want[id] {
			t.Fatalf("%s holds %d requests, ring placement says %d", id, got, want[id])
		}
	}
	if want["shard-0"] == 0 || want["shard-1"] == 0 {
		t.Fatalf("degenerate placement %v — want both shards used", want)
	}

	// A keyed select routes to one shard and finds the row.
	rows, err := r.SelectCtx(ctx, store.Query{Table: "requests", Eq: map[string]any{"domain": "shop7.example.com"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0]["job_id"] != "j7" {
		t.Fatalf("keyed select = %v, want the one shop7 row", rows)
	}
}

func TestRouterScatterSelectMergesOrderAndLimit(t *testing.T) {
	p, ms := newTestPlane(t, "shard-0", "shard-1", "shard-2")
	ring := NewRing(42, 32, ms)
	r := p.router(ring)
	ctx := context.Background()

	for i := 0; i < 30; i++ {
		row := reqRow(fmt.Sprintf("j%02d", i), fmt.Sprintf("shop%d.example.com", i))
		if _, err := r.InsertCtx(ctx, "requests", row); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := r.SelectCtx(ctx, store.Query{Table: "requests", OrderBy: "job_id", Desc: true, Limit: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("limit ignored: got %d rows", len(rows))
	}
	for i, want := range []string{"j29", "j28", "j27", "j26", "j25"} {
		if rows[i]["job_id"] != want {
			t.Fatalf("merged order wrong at %d: %v", i, rows[i]["job_id"])
		}
	}
}

func TestRouterBatchSplitsAndCompensates(t *testing.T) {
	p, ms := newTestPlane(t, "shard-0", "shard-1")
	ring := NewRing(42, 32, ms)
	r := p.router(ring)
	ctx := context.Background()

	// A clean batch spanning both shards lands every row on its owner.
	var batch []store.Row
	for i := 0; i < 20; i++ {
		batch = append(batch, reqRow(fmt.Sprintf("b%d", i), fmt.Sprintf("shop%d.example.com", i)))
	}
	ids, err := r.InsertBatchCtx(ctx, "requests", batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(batch) {
		t.Fatalf("got %d ids for %d rows", len(ids), len(batch))
	}
	total := 0
	for _, db := range p.dbs {
		total += db.Counts()["requests"]
	}
	if total != len(batch) {
		t.Fatalf("plane holds %d rows, want %d", total, len(batch))
	}

	// Find two domains owned by different shards, so the failing group
	// (unique violation) comes after an applied group.
	var d0, d1 string
	for i := 100; ; i++ {
		d := fmt.Sprintf("shop%d.example.com", i)
		owner := ring.Owner(KeyForRow("requests", reqRow("x", d))).ID
		if d0 == "" {
			d0 = d
			continue
		}
		if ring.Owner(KeyForRow("requests", reqRow("x", d0))).ID != owner {
			d1 = d
			break
		}
	}
	if _, err := r.InsertCtx(ctx, "requests", reqRow("dup", d1)); err != nil {
		t.Fatal(err)
	}
	before := 0
	for _, db := range p.dbs {
		before += db.Counts()["requests"]
	}
	_, err = r.InsertBatchCtx(ctx, "requests", []store.Row{
		reqRow("fresh", d0),
		reqRow("dup", d1), // violates the unique job_id index on its shard
	})
	if err == nil {
		t.Fatal("batch with a duplicate unique key should fail")
	}
	after := 0
	for _, db := range p.dbs {
		after += db.Counts()["requests"]
	}
	if after != before {
		t.Fatalf("failed batch leaked rows: %d → %d (compensation missing)", before, after)
	}
}

func TestRouterProcFanoutMerges(t *testing.T) {
	p, ms := newTestPlane(t, "shard-0", "shard-1")
	ring := NewRing(42, 32, ms)
	r := p.router(ring)
	ctx := context.Background()

	perDomain := map[string]int{}
	for i := 0; i < 12; i++ {
		domain := fmt.Sprintf("shop%d.example.com", i%4)
		row := store.Row{"job_id": fmt.Sprintf("j%d", i), "url": "https://" + domain + "/p", "domain": domain,
			"source": "user", "country": "DE", "converted": 10.0 + float64(i)}
		if _, err := r.InsertCtx(ctx, "responses", row); err != nil {
			t.Fatal(err)
		}
		perDomain[domain]++
	}
	var counts map[string]int
	if err := r.CallProcCtx(ctx, "responses_by_domain", nil, &counts); err != nil {
		t.Fatal(err)
	}
	for d, want := range perDomain {
		if counts[d] != want {
			t.Fatalf("merged responses_by_domain[%s] = %d, want %d (full: %v)", d, counts[d], want, counts)
		}
	}

	// An unregistered proc must fail loudly rather than return one
	// shard's partial answer.
	if err := r.CallProcCtx(ctx, "no_such_merge", nil, nil); err == nil {
		t.Fatal("proc without a merge rule should error")
	}
}

// TestRouterExportPreservesIDsAndJoins: a merged export carries every row
// under the ID it was acked under, in ID order, so the responses →
// requests join holds in the snapshot exactly as it was written.
func TestRouterExportPreservesIDsAndJoins(t *testing.T) {
	p, ms := newTestPlane(t, "shard-0", "shard-1")
	ring := NewRing(42, 32, ms)
	r := p.router(ring)
	ctx := context.Background()

	reqJob := map[int64]string{}  // acked request ID → job
	respJob := map[int64]string{} // acked response ID → job
	reqOf := map[string]int64{}
	for i := 0; i < 10; i++ {
		job := fmt.Sprintf("j%d", i)
		domain := fmt.Sprintf("shop%d.example.com", i)
		reqID, err := r.InsertCtx(ctx, "requests", reqRow(job, domain))
		if err != nil {
			t.Fatal(err)
		}
		respID, err := r.InsertCtx(ctx, "responses", store.Row{
			"job_id": job, "request_id": float64(reqID),
			"url": "https://" + domain + "/p/" + job, "domain": domain,
		})
		if err != nil {
			t.Fatal(err)
		}
		if reqJob[reqID] != "" || respJob[respID] != "" {
			t.Fatalf("two shards minted the same ID: request %d / response %d", reqID, respID)
		}
		reqJob[reqID], respJob[respID], reqOf[job] = job, job, reqID
	}

	snap, err := r.ExportCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, ts := range snap.Tables {
		want := map[string]map[int64]string{"requests": reqJob, "responses": respJob}[ts.Spec.Name]
		if want == nil {
			continue
		}
		if len(ts.Rows) != len(want) {
			t.Fatalf("merged export has %d %s, want %d", len(ts.Rows), ts.Spec.Name, len(want))
		}
		var prev int64
		for _, row := range ts.Rows {
			id, _ := numericID(row[store.ID])
			if want[id] != row["job_id"] {
				t.Fatalf("%s row %d exported as job %v, acked as %q", ts.Spec.Name, id, row["job_id"], want[id])
			}
			if id <= prev {
				t.Fatalf("%s export out of ID order: %d after %d", ts.Spec.Name, id, prev)
			}
			prev = id
			if ts.Spec.Name == "responses" {
				if ref, _ := numericID(row["request_id"]); ref != reqOf[want[id]] {
					t.Fatalf("response of %s references request %d, written as %d", want[id], ref, reqOf[want[id]])
				}
			}
		}
	}
}

// TestRouterKeepsStoreErrorIdentity: the store's sentinels match with
// errors.Is after crossing the RPC boundary and the router.
func TestRouterKeepsStoreErrorIdentity(t *testing.T) {
	p, ms := newTestPlane(t, "shard-0", "shard-1")
	r := p.router(NewRing(42, 32, ms))
	ctx := context.Background()

	if _, err := r.InsertCtx(ctx, "requests", reqRow("dup", "shop1.example.com")); err != nil {
		t.Fatal(err)
	}
	_, dupErr := r.InsertCtx(ctx, "requests", reqRow("dup", "shop1.example.com"))
	_, rowErr := r.GetCtx(ctx, "requests", 1<<40)
	_, tableErr := r.InsertCtx(ctx, "no_such_table", store.Row{"x": 1})
	for _, c := range []struct {
		name      string
		got, want error
	}{
		{"duplicate unique key", dupErr, store.ErrDupUnique},
		{"missing row", rowErr, store.ErrNoRow},
		{"missing table", tableErr, store.ErrNoTable},
		{"existing table", r.CreateTableCtx(ctx, reqSpec), store.ErrTableExists},
	} {
		if !errors.Is(c.got, c.want) {
			t.Errorf("%s: got %v, want errors.Is %v", c.name, c.got, c.want)
		}
		for _, other := range []error{store.ErrDupUnique, store.ErrNoRow, store.ErrNoTable, store.ErrTableExists} {
			if other != c.want && errors.Is(c.got, other) {
				t.Errorf("%s: %v also matches %v", c.name, c.got, other)
			}
		}
	}
}

func TestRouterCountsSumAcrossShards(t *testing.T) {
	p, ms := newTestPlane(t, "shard-0", "shard-1", "shard-2")
	ring := NewRing(42, 32, ms)
	r := p.router(ring)
	ctx := context.Background()

	for i := 0; i < 25; i++ {
		if _, err := r.InsertCtx(ctx, "requests", reqRow(fmt.Sprintf("j%d", i), fmt.Sprintf("s%d.com", i))); err != nil {
			t.Fatal(err)
		}
	}
	counts, err := r.CountsCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if counts["requests"] != 25 {
		t.Fatalf("summed counts = %v, want 25 requests", counts)
	}
	if r.OpsTotal() == 0 {
		t.Fatal("router op counter stayed zero")
	}
}
