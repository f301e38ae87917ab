package main

import (
	"hash/fnv"
	"math"

	mmdb "repro"
)

// The reference answers below are computed from the generated columns
// with plain Go loops, maps and sorts, never through the engine. A query
// result is read row by row into a flat []int64 (readRows) and compared
// with one of them.

// readRows reads every row of a result, as a caller does, appending each
// value's integer form to buf.
func readRows(res *mmdb.Result, buf []int64) []int64 {
	for i := 0; i < res.Len(); i++ {
		for _, v := range res.Row(i) {
			buf = append(buf, intOf(v))
		}
	}
	return buf
}

// intOf maps a value to an int64: integers as they are, floats rounded,
// strings by their hash.
func intOf(v mmdb.Value) int64 {
	switch v.Type() {
	case mmdb.TypeInt:
		return v.Int()
	case mmdb.TypeFloat:
		return int64(math.Round(v.Float()))
	case mmdb.TypeString:
		return strHash(v.Str())
	default:
		return math.MinInt64
	}
}

func strHash(s string) int64 {
	h := fnv.New64a()
	h.Write([]byte(s)) // hash.Hash.Write never fails
	return int64(h.Sum64())
}

// mix64 is the splitmix64 finalizer, a bijective 64-bit mixer.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

func rowHash(row []int64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range row {
		h = mix64(h ^ uint64(v))
	}
	return h
}

// A ref is the reference answer of one query.
type ref interface {
	check(flat []int64) error
}

// multiset summarizes a bag of rows by their count and the wrapping sum
// of a hash of each row. Dropping, adding or altering a row changes it;
// reordering rows does not, so results whose order the engine may choose
// (joins under role reversal, scans, DISTINCT) compare as multisets.
type multiset struct {
	width int
	rows  int
	sum   uint64
}

func (m *multiset) add(row ...int64) {
	m.rows++
	m.sum += rowHash(row)
}

func summarize(width int, flat []int64) multiset {
	m := multiset{width: width}
	for i := 0; i+width <= len(flat); i += width {
		m.add(flat[i : i+width]...)
	}
	return m
}

func (m multiset) check(flat []int64) error {
	if len(flat) != m.rows*m.width {
		return wrong("%d values, want %d rows of %d", len(flat), m.rows, m.width)
	}
	if got := summarize(m.width, flat); got.sum != m.sum {
		return wrong("%d rows with checksum %x, want %x", got.rows, got.sum, m.sum)
	}
	return nil
}

// groups is the exact answer of a grouped aggregate: each group key and
// its aggregate values, in any row order.
type groups struct {
	aggs int                // aggregate columns after the key
	want map[int64][]int64  // key → aggregate values
	seen map[int64]struct{} // scratch, reused between checks
}

func newGroups(aggs int) *groups {
	return &groups{aggs: aggs, want: make(map[int64][]int64), seen: make(map[int64]struct{})}
}

func (g *groups) check(flat []int64) error {
	w := g.aggs + 1
	if len(flat) != len(g.want)*w {
		return wrong("%d values, want %d groups of %d", len(flat), len(g.want), w)
	}
	clear(g.seen)
	for i := 0; i < len(flat); i += w {
		key := flat[i]
		want, ok := g.want[key]
		if !ok {
			return wrong("unexpected group %d", key)
		}
		if _, dup := g.seen[key]; dup {
			return wrong("group %d twice", key)
		}
		g.seen[key] = struct{}{}
		for j, v := range flat[i+1 : i+w] {
			if v != want[j] {
				return wrong("group %d aggregate %d = %d, want %d", key, j, v, want[j])
			}
		}
	}
	return nil
}

// ordered is an exact answer whose row order is part of it (top-k).
type ordered struct {
	rows []int64
}

func (o ordered) check(flat []int64) error {
	if len(flat) != len(o.rows) {
		return wrong("%d values, want %d", len(flat), len(o.rows))
	}
	for i := range flat {
		if flat[i] != o.rows[i] {
			return wrong("value %d is %d, want %d", i, flat[i], o.rows[i])
		}
	}
	return nil
}
