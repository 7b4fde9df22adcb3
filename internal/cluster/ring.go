package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// Ring is a consistent-hash ring over worker ids. Each node owns
// `replicas` virtual points on a 64-bit circle; a key is routed to the
// first point at or clockwise of its hash. Adding or removing one node
// only moves the keys adjacent to its points — the property that makes
// job placement stable as workers join and leave. The ring is not
// safe for concurrent use; the Coordinator serializes access under its
// own lock.
type Ring struct {
	replicas int
	nodes    map[string]struct{}
	points   []ringPoint // sorted by hash
}

type ringPoint struct {
	hash uint64
	node string
}

// NewRing creates an empty ring with the given virtual-node count per
// node (values < 1 are clamped to 1).
func NewRing(replicas int) *Ring {
	if replicas < 1 {
		replicas = 1
	}
	return &Ring{replicas: replicas, nodes: make(map[string]struct{})}
}

// hashKey maps a string onto the circle (FNV-1a, stable across
// processes and platforms, so a coordinator restart re-derives the
// same placement).
func hashKey(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// Add inserts a node's virtual points. Adding a present node is a
// no-op.
func (r *Ring) Add(node string) {
	if _, ok := r.nodes[node]; ok {
		return
	}
	r.nodes[node] = struct{}{}
	for i := 0; i < r.replicas; i++ {
		r.points = append(r.points, ringPoint{hash: hashKey(fmt.Sprintf("%s#%d", node, i)), node: node})
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
}

// Remove deletes a node's virtual points. Removing an absent node is a
// no-op.
func (r *Ring) Remove(node string) {
	if _, ok := r.nodes[node]; !ok {
		return
	}
	delete(r.nodes, node)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Len returns the number of nodes on the ring.
func (r *Ring) Len() int { return len(r.nodes) }

// LookupN walks clockwise from the key's hash and returns the first n
// distinct nodes encountered — the key's preference order. Fewer than
// n nodes on the ring returns all of them.
func (r *Ring) LookupN(key string, n int) []string {
	if n < 1 || len(r.points) == 0 {
		return nil
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	h := hashKey(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	seen := make(map[string]struct{}, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if _, dup := seen[p.node]; dup {
			continue
		}
		seen[p.node] = struct{}{}
		out = append(out, p.node)
	}
	return out
}
