package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sort"
	"strings"

	"timber/internal/match"
	"timber/internal/xmltree"
)

// Every timed result is compared with a reference computed at set-up
// by the slowest, simplest evaluator (exec.StrategyLogical for
// queries, the binary cascade at parallelism 1 for patterns). The
// comparison is order-insensitive because strategies legitimately
// differ in group order (first appearance vs ascending value).

// serializeTrees renders each result tree on its own; this is the
// "result fully serialized" part of a timed query.
func serializeTrees(trees []*xmltree.Node) []string {
	out := make([]string, len(trees))
	for i, tr := range trees {
		out[i] = xmltree.SerializeString(tr)
	}
	return out
}

// treesDigest hashes the sorted per-tree serializations. It sorts a
// copy, so callers keep their result order.
func treesDigest(parts []string) string {
	s := append([]string(nil), parts...)
	sort.Strings(s)
	h := sha256.New()
	var n [8]byte
	for _, p := range s {
		binary.BigEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// splitTrees cuts a response's concatenated result trees back into one
// string per tree. Result elements never nest, so the closing tag of
// the constructed element ends exactly one tree.
func splitTrees(all string) []string {
	const end = "</" + resultTag + ">\n"
	parts := strings.SplitAfter(all, end)
	if n := len(parts); n > 0 && parts[n-1] == "" {
		parts = parts[:n-1]
	}
	return parts
}

// witnessDigest is the order-insensitive fingerprint of a drained
// pattern match: the witness count and the wrapping sum of one FNV-1a
// hash per witness over its bound intervals in label order. A sum
// needs no sort and no per-witness allocation, so verification stays
// cheap next to matches that finish in milliseconds.
type witnessDigest struct {
	Count int
	Sum   uint64
}

func (d *witnessDigest) add(labels []string, b match.DBBinding) {
	// FNV-1a, written out: hash/fnv's hasher is an allocation per
	// witness, inside the timed drain.
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	mix := func(v uint32) {
		for s := 0; s < 32; s += 8 {
			h = (h ^ uint64(byte(v>>s))) * prime
		}
	}
	for _, l := range labels {
		iv := b[l].Interval
		mix(uint32(iv.Doc))
		mix(iv.Start)
		mix(iv.End)
		mix(uint32(iv.Level))
	}
	d.Count++
	d.Sum += h
}
