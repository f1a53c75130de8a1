package match

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"math"

	"fuzzyfd/internal/assign"
)

// Memo is what consecutive calls of one Matcher share: a record per
// distinct value (its vector, support and interned blocking keys, which
// depend on the value alone) and the pairs of every assignment round run
// or replayed since the previous Sweep, keyed by a digest of the round's
// exact inputs — the ordered representatives, the column's ordered values,
// θ and the dense limit. A round's pairs depend on nothing else: interned
// key ids number the blocking buckets but never change which pairs are
// candidates. So a call that meets a round it has seen replays its pairs
// instead of scoring and assigning again, and its clusters are a fresh
// call's.
//
// A Memo serves one scorer, whose vectors its records hold, and one call
// at a time; calls that run at once need a Memo each. A call only reads it
// while it scores a round's pairs concurrently. Its records live as long as
// it does.
type Memo struct {
	values map[string]*value
	keyIDs map[string]int32 // blocking keys interned to dense ids

	rounds map[roundKey][]assign.Pair // run or replayed since the last Sweep
	kept   map[roundKey][]assign.Pair // run or replayed between the two Sweeps before

	h   hash.Hash
	n   int       // bytes pending in buf
	buf [512]byte // roundKey's write buffer
}

// roundKey is the digest of one round's inputs.
type roundKey [sha256.Size]byte

// NewMemo returns an empty memo.
func NewMemo() *Memo {
	return &Memo{
		values: make(map[string]*value),
		keyIDs: make(map[string]int32),
		rounds: make(map[roundKey][]assign.Pair),
		h:      sha256.New(),
	}
}

// Sweep drops every round neither run nor replayed since the previous
// Sweep. A session sweeps once per integration, so the rounds it keeps are
// those its latest integration used.
func (m *Memo) Sweep() {
	m.kept, m.rounds = m.rounds, make(map[roundKey][]assign.Pair)
}

// replay returns the pairs of the round with this key, if one ran since
// the Sweep before last.
func (m *Memo) replay(key roundKey) ([]assign.Pair, bool) {
	if pairs, ok := m.rounds[key]; ok {
		return pairs, true
	}
	pairs, ok := m.kept[key]
	if ok {
		m.rounds[key] = pairs
	}
	return pairs, ok
}

// roundKey hashes a round's inputs. Every length is varint-prefixed, so
// the encoding is injective up to hash collision; strings are copied into
// the memo's fixed buffer on their way to the hash, so hashing allocates
// nothing per string.
func (m *Memo) roundKey(reps, values []string, theta float64, denseLimit int) roundKey {
	m.h.Reset()
	m.uvarint(math.Float64bits(theta))
	m.uvarint(uint64(denseLimit))
	for _, side := range [2][]string{reps, values} {
		m.uvarint(uint64(len(side)))
		for _, v := range side {
			m.uvarint(uint64(len(v)))
			for len(v) > 0 {
				if m.n == len(m.buf) {
					m.flush()
				}
				c := copy(m.buf[m.n:], v)
				m.n += c
				v = v[c:]
			}
		}
	}
	m.flush()
	var key roundKey
	m.h.Sum(key[:0])
	return key
}

func (m *Memo) uvarint(x uint64) {
	if m.n+binary.MaxVarintLen64 > len(m.buf) {
		m.flush()
	}
	m.n += binary.PutUvarint(m.buf[m.n:], x)
}

func (m *Memo) flush() {
	m.h.Write(m.buf[:m.n])
	m.n = 0
}
