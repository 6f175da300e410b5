// Package shard turns the single Database server of the paper's final
// architecture into a horizontally sharded data plane. A consistent-hash
// ring with virtual nodes places every row by its URL-derived key; a
// Router implements the store client interface over the ring so
// measurement servers, the coordinator, and the history pipeline are
// untouched; and ring changes rebalance live, streaming moved key groups
// to their new owners under the IDs they already have while writes in the
// handoff window land on both. Ring state replicates through the HA coordinator log
// (the ring_update command) so a control-plane failover cannot forget
// where the data lives.
package shard

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"

	"pricesheriff/internal/store"
)

// Member is one store server on the ring.
type Member struct {
	ID   string `json:"id"`   // stable name, e.g. "shard-0"
	Addr string `json:"addr"` // dialable store server address
	// Ordinal is the stripe the member's engine mints row IDs from
	// (store.NewPlaneDB): unique among all members the plane ever had, so
	// a row keeps the ID it was acked under wherever it moves.
	Ordinal int `json:"ordinal"`
}

// Ring is one immutable placement epoch: a seeded consistent-hash ring
// with VNodes virtual nodes per member. Mutations (Add/Remove) return a
// new Ring with Version+1; the version totally orders ring updates as
// they replicate through the coordinator log. Never modify a Ring after
// construction — routers share them across goroutines without locks.
type Ring struct {
	Version int64    `json:"version"`
	Seed    int64    `json:"seed"`
	VNodes  int      `json:"vnodes"`
	Members []Member `json:"members"`

	points []point // sorted placement points; built once at construction
}

type point struct {
	hash   uint64
	member int // index into Members
}

// DefaultVNodes is the virtual-node count when NewRing gets 0. 64 per
// member keeps the maximum/mean key-share ratio under ~1.3 for small
// rings — enough balance that an overloaded plane saturates all shards.
const DefaultVNodes = 64

// NewRing builds a version-1 ring over the members. Member IDs must be
// unique; placement depends only on (seed, vnodes, member IDs), so two
// processes constructing the same ring agree on every key.
func NewRing(seed int64, vnodes int, members []Member) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	r := &Ring{Version: 1, Seed: seed, VNodes: vnodes, Members: append([]Member(nil), members...)}
	sort.Slice(r.Members, func(i, j int) bool { return r.Members[i].ID < r.Members[j].ID })
	r.build()
	return r
}

// maxVNodes bounds the virtual nodes a decoded ring may ask for: the
// points are built eagerly, and a ring_update must not size them.
const maxVNodes = 1 << 12

// DecodeRing unmarshals a ring from its wire form (the ring_update
// payload), rejects one no plane could have produced — two members with
// one ID or one ordinal, an ordinal outside the ID format — and rebuilds
// the placement points (which never travel: they are derived state).
func DecodeRing(raw []byte) (*Ring, error) {
	var r Ring
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("shard: decode ring: %w", err)
	}
	if r.VNodes <= 0 {
		r.VNodes = DefaultVNodes
	}
	if r.VNodes > maxVNodes {
		return nil, fmt.Errorf("shard: decode ring: %d vnodes (max %d)", r.VNodes, maxVNodes)
	}
	if err := r.validate(); err != nil {
		return nil, fmt.Errorf("shard: decode ring: %w", err)
	}
	sort.Slice(r.Members, func(i, j int) bool { return r.Members[i].ID < r.Members[j].ID })
	r.build()
	return &r, nil
}

// validate checks what routing and row identity rest on: member IDs are
// distinct, and so are ordinals — two engines minting from one stripe
// hand out the same row ID twice, and the copy that moves second is
// taken for one already delivered.
func (r *Ring) validate() error {
	ids := make(map[string]bool, len(r.Members))
	ordinals := make(map[int]string, len(r.Members))
	for _, m := range r.Members {
		if m.ID == "" || ids[m.ID] {
			return fmt.Errorf("empty or duplicate member ID %q", m.ID)
		}
		if m.Ordinal < 0 || m.Ordinal > store.MaxOrdinal {
			return fmt.Errorf("member %s has ordinal %d, outside [0, %d]", m.ID, m.Ordinal, store.MaxOrdinal)
		}
		if other, taken := ordinals[m.Ordinal]; taken {
			return fmt.Errorf("members %s and %s share ordinal %d", other, m.ID, m.Ordinal)
		}
		ids[m.ID], ordinals[m.Ordinal] = true, m.ID
	}
	return nil
}

// Encode marshals the ring for replication; points are derived and
// excluded.
func (r *Ring) Encode() []byte {
	raw, err := json.Marshal(r)
	if err != nil {
		panic(fmt.Sprintf("shard: encode ring: %v", err)) // fields are all marshalable
	}
	return raw
}

// build computes the placement points: VNodes seeded hash points per
// member, sorted. Ties (vanishingly rare with 64-bit hashes) resolve by
// member order so every builder agrees.
func (r *Ring) build() {
	r.points = make([]point, 0, len(r.Members)*r.VNodes)
	for mi, m := range r.Members {
		for v := 0; v < r.VNodes; v++ {
			r.points = append(r.points, point{hash: r.hashVNode(m.ID, v), member: mi})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].member < r.points[j].member
	})
}

// hashVNode seeds FNV-64a with the ring seed, then mixes the member ID
// and virtual-node index. The finalizer matters: raw FNV barely
// avalanches a trailing counter, so without it all of a member's vnode
// points collapse into one cluster ~p apart and the ring degenerates to
// one vnode per member.
func (r *Ring) hashVNode(memberID string, vnode int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(r.Seed))
	h.Write(b[:])
	h.Write([]byte(memberID))
	binary.BigEndian.PutUint64(b[:], uint64(vnode))
	h.Write(b[:])
	return mix64(h.Sum64())
}

// hashKey seeds FNV-64a with the ring seed, then the key bytes, with
// the same finalizer as vnode points.
func (r *Ring) hashKey(key string) uint64 {
	h := fnv.New64a()
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(r.Seed))
	h.Write(b[:])
	h.Write([]byte(key))
	return mix64(h.Sum64())
}

// mix64 is the murmur3 fmix64 finalizer: full 64-bit avalanche, so
// near-identical inputs land far apart on the ring.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Owner returns the member owning a key: the successor placement point
// on the ring, wrapping past the top.
func (r *Ring) Owner(key string) Member {
	if len(r.points) == 0 {
		return Member{}
	}
	h := r.hashKey(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.Members[r.points[i].member]
}

// Home is the member holding unsharded tables (history series, watches):
// the lowest member ID, which core pins to the durable shard-0 engine
// and never retires.
func (r *Ring) Home() Member {
	if len(r.Members) == 0 {
		return Member{}
	}
	return r.Members[0] // Members is sorted by ID
}

// Member returns the member with the given ID.
func (r *Ring) Member(id string) (Member, bool) {
	for _, m := range r.Members {
		if m.ID == id {
			return m, true
		}
	}
	return Member{}, false
}

// Add returns a new ring epoch with one more member. Consistent hashing
// guarantees the new member only steals key ranges — no key moves
// between surviving members — which is what lets the rebalance stream
// from old owners to exactly one target.
func (r *Ring) Add(m Member) *Ring {
	next := NewRing(r.Seed, r.VNodes, append(append([]Member(nil), r.Members...), m))
	next.Version = r.Version + 1
	return next
}

// Remove returns a new ring epoch without the named member; its keys
// redistribute across the survivors.
func (r *Ring) Remove(id string) *Ring {
	keep := make([]Member, 0, len(r.Members))
	for _, m := range r.Members {
		if m.ID != id {
			keep = append(keep, m)
		}
	}
	next := NewRing(r.Seed, r.VNodes, keep)
	next.Version = r.Version + 1
	return next
}

// Shares reports each member's fraction of the hash space — the
// theoretical key share, used by the status page. Shares sum to 1.
func (r *Ring) Shares() map[string]float64 {
	out := make(map[string]float64, len(r.Members))
	if len(r.points) == 0 {
		return out
	}
	const whole = float64(1<<63) * 2 // 2^64 as float
	for i, p := range r.points {
		// The arc ending at point i is owned by point i's member.
		var arc uint64
		if i == 0 {
			arc = r.points[0].hash + (^r.points[len(r.points)-1].hash + 1)
		} else {
			arc = p.hash - r.points[i-1].hash
		}
		out[r.Members[p.member].ID] += float64(arc) / whole
	}
	return out
}
