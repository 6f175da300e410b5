package shard

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"
)

func members(n int) []Member {
	out := make([]Member, n)
	for i := range out {
		out[i] = Member{ID: fmt.Sprintf("shard-%d", i), Addr: fmt.Sprintf("store-%d", i), Ordinal: i}
	}
	return out
}

func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("shop%d.example.com|C%d", i, i%30)
	}
	return keys
}

func TestRingDeterminism(t *testing.T) {
	keys := testKeys(500)
	a := NewRing(42, 64, members(4))
	// Same parameters, members given in reverse order.
	ms := members(4)
	for i, j := 0, len(ms)-1; i < j; i, j = i+1, j-1 {
		ms[i], ms[j] = ms[j], ms[i]
	}
	b := NewRing(42, 64, ms)
	for _, k := range keys {
		if a.Owner(k) != b.Owner(k) {
			t.Fatalf("placement disagrees for %q: %v vs %v", k, a.Owner(k), b.Owner(k))
		}
	}
	// A different seed should shuffle placement.
	c := NewRing(43, 64, members(4))
	same := 0
	for _, k := range keys {
		if a.Owner(k) == c.Owner(k) {
			same++
		}
	}
	if same == len(keys) {
		t.Fatal("seed has no effect on placement")
	}
}

func TestRingEncodeDecodeRoundTrip(t *testing.T) {
	a := NewRing(7, 32, members(3))
	b, err := DecodeRing(a.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if b.Version != a.Version || b.Seed != a.Seed || b.VNodes != a.VNodes || !reflect.DeepEqual(b.Members, a.Members) {
		t.Fatalf("round trip mangled ring: %+v vs %+v", b, a)
	}
	for _, k := range testKeys(200) {
		if a.Owner(k) != b.Owner(k) {
			t.Fatalf("decoded ring places %q differently", k)
		}
	}
}

func TestRingGrowMovesKeysOnlyToNewMember(t *testing.T) {
	keys := testKeys(1000)
	old := NewRing(1, 64, members(3))
	grown := old.Add(Member{ID: "shard-3", Addr: "store-3"})
	if grown.Version != old.Version+1 {
		t.Fatalf("Add version = %d, want %d", grown.Version, old.Version+1)
	}
	moved := 0
	for _, k := range keys {
		was, is := old.Owner(k), grown.Owner(k)
		if was.ID == is.ID {
			continue
		}
		moved++
		if is.ID != "shard-3" {
			t.Fatalf("key %q moved %s → %s, not to the new member", k, was.ID, is.ID)
		}
	}
	if moved == 0 {
		t.Fatal("grow moved no keys")
	}
	// Roughly 1/4 of keys should move to the 4th member.
	if frac := float64(moved) / float64(len(keys)); frac > 0.45 {
		t.Fatalf("grow moved %.0f%% of keys; consistent hashing should move ~25%%", frac*100)
	}
}

func TestRingShrinkMovesOnlyRemovedMembersKeys(t *testing.T) {
	keys := testKeys(1000)
	old := NewRing(1, 64, members(4))
	shrunk := old.Remove("shard-2")
	for _, k := range keys {
		was, is := old.Owner(k), shrunk.Owner(k)
		if was.ID == "shard-2" {
			if is.ID == "shard-2" {
				t.Fatalf("key %q still owned by removed member", k)
			}
			continue
		}
		if was.ID != is.ID {
			t.Fatalf("key %q moved %s → %s though its owner survived", k, was.ID, is.ID)
		}
	}
}

func TestRingSharesBalance(t *testing.T) {
	r := NewRing(9, 0, members(4)) // 0 → DefaultVNodes
	shares := r.Shares()
	sum := 0.0
	maxShare := 0.0
	for _, s := range shares {
		sum += s
		if s > maxShare {
			maxShare = s
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("shares sum to %f, want 1", sum)
	}
	mean := 1.0 / float64(len(shares))
	if maxShare/mean > 1.6 {
		t.Fatalf("max/mean share ratio %.2f too skewed for %d vnodes", maxShare/mean, r.VNodes)
	}
	// Placement of real keys should track the theoretical shares loosely.
	counts := map[string]int{}
	keys := testKeys(4000)
	for _, k := range keys {
		counts[r.Owner(k).ID]++
	}
	for id, c := range counts {
		frac := float64(c) / float64(len(keys))
		if frac < shares[id]*0.5 || frac > shares[id]*1.8 {
			t.Fatalf("member %s got %.1f%% of keys vs %.1f%% theoretical share", id, frac*100, shares[id]*100)
		}
	}
}

func TestRingHomeIsLowestID(t *testing.T) {
	r := NewRing(1, 16, []Member{{ID: "shard-2", Addr: "c"}, {ID: "shard-0", Addr: "a"}, {ID: "shard-1", Addr: "b"}})
	if r.Home().ID != "shard-0" {
		t.Fatalf("Home = %s, want shard-0", r.Home().ID)
	}
}

func TestKeyForRowColocatesJoin(t *testing.T) {
	req := map[string]any{"job_id": "j1", "url": "https://Shop.Example.com:443/p/1", "domain": "shop.example.com"}
	resp := map[string]any{"job_id": "j1", "request_id": float64(3), "url": "", "domain": "shop.example.com"}
	if KeyForRow("requests", req) != KeyForRow("responses", resp) {
		t.Fatalf("request and response of one shop key differently: %q vs %q",
			KeyForRow("requests", req), KeyForRow("responses", resp))
	}
}

// FuzzDecodeRing feeds arbitrary bytes to the ring_update payload
// decoder. Whatever the input it must not panic; a ring it accepts has
// distinct member IDs and distinct, in-range ordinals (two engines
// minting from one stripe would hand out the same row ID twice), places
// keys, and survives Encode → DecodeRing unchanged.
func FuzzDecodeRing(f *testing.F) {
	f.Add(NewRing(7, 32, members(3)).Encode())
	f.Fuzz(func(t *testing.T, raw []byte) {
		r, err := DecodeRing(raw)
		if err != nil {
			return
		}
		ids, ordinals := map[string]bool{}, map[int]bool{}
		for _, m := range r.Members {
			if m.ID == "" || ids[m.ID] || ordinals[m.Ordinal] || m.Ordinal < 0 || m.Ordinal >= 1<<16 {
				t.Fatalf("accepted a ring with a bad or repeated member identity: %+v", r.Members)
			}
			ids[m.ID], ordinals[m.Ordinal] = true, true
		}
		if len(r.Members) > 0 {
			if _, ok := r.Member(r.Owner("shop1.example.com").ID); !ok {
				t.Fatal("decoded ring places a key on a member it does not have")
			}
			if r.Home().ID > r.Members[len(r.Members)-1].ID {
				t.Fatal("Home is not the lowest member ID")
			}
		}
		enc := r.Encode()
		again, err := DecodeRing(enc)
		if err != nil {
			t.Fatalf("re-decode of an encoded ring: %v", err)
		}
		if !bytes.Equal(again.Encode(), enc) {
			t.Fatalf("ring does not round-trip:\n%s\n%s", enc, again.Encode())
		}
	})
}
