package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// jsonRoundTrip is what the JSON WAL records of earlier builds gave back.
func jsonRoundTrip(t testing.TB, op Op) Op {
	t.Helper()
	raw, err := json.Marshal(op)
	if err != nil {
		t.Fatalf("marshal %+v: %v", op, err)
	}
	var out Op
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// randValue builds a row value of every kind the codec knows, nested up
// to depth levels, plus types only a JSON round trip normalizes.
func randValue(rng *rand.Rand, depth int) any {
	n := 9
	if depth <= 0 {
		n = 7
	}
	switch rng.Intn(n) {
	case 0:
		return nil
	case 1:
		return randString(rng)
	case 2:
		return rng.NormFloat64() * 1e3
	case 3:
		return rng.Intn(2) == 0
	case 4:
		return rng.Int63n(1<<53) - 1<<52
	case 5:
		return []string{randString(rng), ""}
	case 6:
		return map[string]int{"a": rng.Intn(9)}
	case 7:
		l := make([]any, rng.Intn(4))
		for i := range l {
			l[i] = randValue(rng, depth-1)
		}
		return l
	default:
		m := make(map[string]any, 3)
		for i := rng.Intn(4); i > 0; i-- {
			m[randString(rng)] = randValue(rng, depth-1)
		}
		return m
	}
}

func randString(rng *rand.Rand) string {
	const alphabet = "abc€ü \"\\\n<>&\x00"
	r := []rune(alphabet)
	var b strings.Builder
	for i := rng.Intn(8); i > 0; i-- {
		b.WriteRune(r[rng.Intn(len(r))])
	}
	return b.String()
}

func randOp(rng *rand.Rand) Op {
	op := Op{Kind: opKinds[1+rng.Intn(len(opKinds)-1)], Table: randString(rng), ID: rng.Int63n(1 << 53)}
	switch op.Kind {
	case OpCreate:
		op.Spec = &TableSpec{Name: op.Table, Engine: []string{"", EngineMem, EngineDisk}[rng.Intn(3)]}
		for i := rng.Intn(3); i > 0; i-- {
			op.Spec.Index = append(op.Spec.Index, randString(rng))
		}
		if rng.Intn(2) == 0 {
			op.Spec.Unique = []string{}
		}
	case OpInsert, OpUpdate:
		if rng.Intn(8) == 0 {
			break // nil row
		}
		op.Row = Row{}
		for i := rng.Intn(17); i > 0; i-- {
			op.Row[randString(rng)] = randValue(rng, 3)
		}
	}
	return op
}

// TestDecodeOpMatchesJSONRoundTrip: a binary record replays to exactly
// what the JSON record it replaces did, nested values included.
func TestDecodeOpMatchesJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	for i := 0; i < 2000; i++ {
		op := randOp(rng)
		got, err := DecodeOp(AppendOp(nil, op))
		if err != nil {
			t.Fatalf("op %d %+v: %v", i, op, err)
		}
		if want := jsonRoundTrip(t, op); !reflect.DeepEqual(got, want) {
			t.Fatalf("op %d:\n got %#v\nwant %#v", i, got, want)
		}
	}
}

func TestDecodeRowRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		row := Row{ID: float64(i + 1)}
		for j := rng.Intn(17); j > 0; j-- {
			row[randString(rng)] = randValue(rng, 2)
		}
		got, err := DecodeRow(AppendRow(nil, row))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := json.Marshal(row)
		var want Row
		json.Unmarshal(raw, &want)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("row %d:\n got %#v\nwant %#v", i, got, want)
		}
	}
	if _, err := DecodeRow(append(AppendRow(nil, Row{"a": 1.0}), 0)); err == nil {
		t.Error("trailing byte accepted")
	}
}

// TestDecodeStringsDoNotAliasInput: a decoded row must not pin (or
// change with) the buffer it came from — a cached block, a segment.
func TestDecodeStringsDoNotAliasInput(t *testing.T) {
	data := AppendRow(nil, Row{"url": "http://a/"})
	row, err := DecodeRow(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] = 'x'
	}
	if row["url"] != "http://a/" {
		t.Fatalf("decoded row changed with its input: %v", row)
	}
}

func TestNestingDepthIsBounded(t *testing.T) {
	var v any = "leaf"
	for i := 0; i < maxValueDepth+5; i++ {
		v = []any{v}
	}
	got, err := DecodeRow(AppendRow(nil, Row{"deep": v}))
	if err != nil {
		t.Fatalf("an encodable value must decode: %v", err)
	}
	depth := 0
	for x := got["deep"]; x != nil; depth++ {
		x = x.([]any)[0]
	}
	if depth != maxValueDepth {
		t.Fatalf("depth %d, want the cut at %d", depth, maxValueDepth)
	}
	// A hostile record nesting deeper is refused, not recursed on.
	b := append([]byte{1}, 1, 1, 'k')
	for i := 0; i <= maxValueDepth; i++ {
		b = append(b, valList, 1)
	}
	b = append(b, valNil)
	if _, err := DecodeRow(b); err == nil {
		t.Fatal("over-deep input decoded")
	}
}

// TestOverclaimedNestingAllocatesBounded: a row nesting lists (or maps)
// whose every level claims as many elements as there are bytes left, over
// a tail that fails the decode, must be refused having allocated in
// proportion to its size — not ~16 bytes per input byte at every level.
// The wire's insert and select frames decode rows the same way.
func TestOverclaimedNestingAllocatesBounded(t *testing.T) {
	const depth, pad = 100, 64 << 10
	for _, kind := range []byte{valList, valMap} {
		level, minSize := 4, 1 // marker + a 3-byte count
		if kind == valMap {
			level, minSize = 5, 2 // + an empty key before the nested value
		}
		b := []byte{1, 1, 1, 'k'}
		for i := 0; i < depth; i++ {
			left := (depth-i-1)*level + (level - 4) + pad // bytes after this count
			c := left / minSize
			b = append(b, kind, byte(c)|0x80, byte(c>>7)|0x80, byte(c>>14))
			if kind == valMap {
				b = append(b, 0)
			}
		}
		b = append(b, bytes.Repeat([]byte{0xff}, pad)...)

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeRow(b)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("kind %d: an over-claimed nest decoded", kind)
		}
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(8*len(b)); got > limit {
			t.Errorf("kind %d: refusing a %d-byte row allocated %d bytes, want <= %d", kind, len(b), got, limit)
		}
	}
}

// FuzzDecodeOp: whatever the bytes, DecodeOp returns an op or an error —
// never a panic — and an op it accepts re-encodes to a record that
// decodes to the same op.
func FuzzDecodeOp(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 16; i++ {
		f.Add(AppendOp(nil, randOp(rng)))
	}
	f.Add([]byte{})
	f.Add([]byte(`{"k":"insert","t":"requests","id":1}`))
	f.Add([]byte{recordFormat, 2, 1, 't', 2, 1, 1, 1, 'k', valMap, 200})
	f.Fuzz(func(t *testing.T, data []byte) {
		op, err := DecodeOp(data)
		if err != nil {
			return
		}
		again, err := DecodeOp(AppendOp(nil, op))
		if err != nil {
			t.Fatalf("re-encoded %+v: %v", op, err)
		}
		if got, want := opString(again), opString(canonicalOp(op)); got != want {
			t.Fatalf("round trip:\n got %s\nwant %s", got, want)
		}
	})
}

// opString prints op with map keys sorted and NaN equal to itself.
func opString(op Op) string {
	s := fmt.Sprintf("%#v", op.Row)
	if op.Spec != nil {
		s += fmt.Sprintf("%#v", *op.Spec)
	}
	return fmt.Sprintf("%s %q %d %s", op.Kind, op.Table, op.ID, s)
}

// canonicalOp is op as a record round trip gives it back: an empty row
// and empty spec lists become nil.
func canonicalOp(op Op) Op {
	if len(op.Row) == 0 {
		op.Row = nil
	}
	if op.Spec != nil {
		s := *op.Spec
		if len(s.Index) == 0 {
			s.Index = nil
		}
		if len(s.Unique) == 0 {
			s.Unique = nil
		}
		op.Spec = &s
	}
	return op
}

// TestCommitHookSeesOneCallPerMutation: a batch reaches the hook as one
// call, the hook's error is the call's error, and a DB without a hook
// builds no ops.
func TestCommitHookSeesOneCallPerMutation(t *testing.T) {
	db := NewDB()
	if err := db.CreateTable(TableSpec{Name: "t"}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.InsertBatch("t", []Row{{"a": 1}, {"a": 2}}); err != nil {
		t.Fatal(err)
	}
	if db.ops != nil {
		t.Fatal("a DB without a hook built an op slice")
	}

	var calls [][]string
	failWith := error(nil)
	db.SetCommitHook(func(ops []Op) error {
		var call []string
		for _, op := range ops {
			call = append(call, fmt.Sprintf("%s:%d", op.Kind, op.ID))
		}
		calls = append(calls, call)
		return failWith
	})
	ids, err := db.InsertBatch("t", []Row{{"a": 3}, {"a": 4}, {"a": 5}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.DeleteBatch("t", []int64{ids[0], 999, ids[1]}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.ImportRows("t", []Row{{ID: 100.0}, {ID: 101.0}}); err != nil {
		t.Fatal(err)
	}
	want := [][]string{
		{"insert:3", "insert:4", "insert:5"},
		{"delete:3", "delete:4"},
		{"insert:100", "insert:101"},
	}
	if !reflect.DeepEqual(calls, want) {
		t.Fatalf("hook calls = %v, want %v", calls, want)
	}

	failWith = errors.New("disk full")
	if _, err := db.InsertBatch("t", []Row{{"a": 6}}); !errors.Is(err, failWith) {
		t.Fatalf("InsertBatch err = %v, want the hook's", err)
	}
	// The error is latched: every later mutation returns it and applies
	// nothing, without reaching the hook.
	hookCalls := len(calls)
	if _, err := db.Insert("t", Row{"a": 7}); !errors.Is(err, failWith) {
		t.Fatalf("Insert err = %v, want the latched one", err)
	}
	if err := db.Update("t", ids[2], Row{"a": 8}); !errors.Is(err, failWith) {
		t.Fatalf("Update err = %v, want the latched one", err)
	}
	if err := db.Delete("t", ids[2]); !errors.Is(err, failWith) {
		t.Fatalf("Delete err = %v, want the latched one", err)
	}
	if _, err := db.DeleteBatch("t", []int64{ids[2]}); !errors.Is(err, failWith) {
		t.Fatalf("DeleteBatch err = %v, want the latched one", err)
	}
	if err := db.InsertWithID("t", 200, Row{"a": 9}); !errors.Is(err, failWith) {
		t.Fatalf("InsertWithID err = %v, want the latched one", err)
	}
	if _, err := db.ImportRows("t", []Row{{ID: 201.0}}); !errors.Is(err, failWith) {
		t.Fatalf("ImportRows err = %v, want the latched one", err)
	}
	if err := db.CreateTable(TableSpec{Name: "u"}); !errors.Is(err, failWith) {
		t.Fatalf("CreateTable err = %v, want the latched one", err)
	}
	if len(calls) != hookCalls {
		t.Fatalf("refused mutations reached the hook: %v", calls[hookCalls:])
	}
	if rows, _ := db.Select(Query{Table: "t", Eq: map[string]any{"a": 7.0}}); len(rows) != 0 {
		t.Fatalf("a refused Insert stored %v", rows)
	}
	if r, err := db.Get("t", ids[2]); err != nil || r["a"] != 5.0 {
		t.Fatalf("row %d after a refused Update and Delete = %v, %v; want a=5", ids[2], r, err)
	}
	if _, err := db.Get("t", 200); !errors.Is(err, ErrNoRow) {
		t.Fatalf("a refused InsertWithID stored row 200 (err %v)", err)
	}
	if names := db.Tables(); !reflect.DeepEqual(names, []string{"t"}) {
		t.Fatalf("tables = %v after a refused CreateTable", names)
	}
}
