// Package embed turns cell values into fixed-dimension vectors so that
// fuzzy-matching values land close in cosine distance — the role played by
// the last hidden layer of FastText/BERT/RoBERTa/Llama3/Mistral in the
// paper. Offline substitution (see DESIGN.md §3): each model tier is a
// deterministic feature-hashing embedder; tiers differ in which string
// features they extract and whether they consult the knowledge lexicon (the
// stand-in for LLM world knowledge). Vectors are non-negative and
// L2-normalized, so cosine distance lies in [0,1] exactly as the paper
// assumes when thresholding at θ.
//
// Feature-hashed vectors are sparse: a Mistral-tier value sets a few dozen
// of its 256 coordinates. Support records which, one bit per coordinate,
// and SupportDot sums the products over the coordinates both supports
// share. That is Dot bit for bit, not approximately: every skipped product
// has a zero factor, and adding ±0 to a sum that starts at +0 changes
// nothing (see SupportDot). The argument needs finite coordinates, so a
// vector with a NaN or infinite coordinate has a nil support and is scored
// by Dot; the built-in tiers never produce one, but any Embedder may.
package embed

import (
	"context"
	"math"
	"math/bits"
	"sync"
)

// Vector is a dense, L2-normalized embedding.
type Vector []float32

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b Vector) float64 {
	var s float64
	for i := range a {
		s += float64(a[i]) * float64(b[i])
	}
	return s
}

// Support returns the bitmap of v's nonzero coordinates: bit i%64 of word
// i/64 is set exactly when v[i] != 0. A vector with a NaN or infinite
// coordinate has no support (nil), which makes SupportDot fall back to Dot.
func Support(v Vector) []uint64 {
	s := make([]uint64, (len(v)+63)/64)
	for i, x := range v {
		if x == 0 {
			continue
		}
		if f := float64(x); math.IsNaN(f) || math.IsInf(f, 0) {
			return nil
		}
		s[i/64] |= 1 << (i % 64)
	}
	return s
}

// SupportDot returns Dot(a, b) given sa = Support(a) and sb = Support(b),
// summing float64(a[i])*float64(b[i]) only over the i set in both, in
// ascending i. The result is bit-identical to Dot's: the product of two
// finite float32 values is exact in float64 (24+24 ≤ 53 significand bits,
// and the exponent range cannot underflow), so a product is ±0 only when a
// factor is 0, and those are the terms skipped. Adding ±0 leaves a sum
// unchanged unless the sum is −0, and Dot's sum never is: it starts at +0,
// and an exact cancellation rounds to +0. A fused multiply-add changes
// nothing either, since the product it would fuse is already exact. Either
// support being nil means a non-finite coordinate, for which NaN·0 breaks
// the argument; Dot is then computed in full.
func SupportDot(a, b Vector, sa, sb []uint64) float64 {
	if sa == nil || sb == nil {
		return Dot(a, b)
	}
	var s float64
	for w := range min(len(sa), len(sb)) {
		for m := sa[w] & sb[w]; m != 0; m &= m - 1 {
			i := w*64 + bits.TrailingZeros64(m)
			s += float64(a[i]) * float64(b[i])
		}
	}
	return s
}

// CosineDistance returns 1 − cos(a, b), clamped to [0, 1]. Signed feature
// hashing keeps unrelated values near cosine 0 (distance ≈ 1); the clamp
// folds the rare slightly-negative cosines of anti-correlated hash noise
// into "maximally far", which is what thresholding needs.
func CosineDistance(a, b Vector) float64 { return clampDistance(Dot(a, b)) }

// SupportDistance is CosineDistance(a, b) computed by SupportDot, given the
// supports of a and b: the same value, bit for bit.
func SupportDistance(a, b Vector, sa, sb []uint64) float64 {
	return clampDistance(SupportDot(a, b, sa, sb))
}

func clampDistance(dot float64) float64 {
	d := 1 - dot
	if d < 0 {
		return 0
	}
	if d > 1 {
		return 1
	}
	return d
}

// Embedder maps a cell value to its vector. Implementations must be
// deterministic and safe for concurrent use.
type Embedder interface {
	// Name identifies the model ("mistral", "bert", ...).
	Name() string
	// Dim is the vector dimensionality.
	Dim() int
	// Embed returns the embedding of value. Equal inputs yield equal
	// vectors.
	Embed(value string) Vector
}

// Distance is a convenience helper: the cosine distance between the
// embeddings of two values under e. Identical strings are distance 0 by
// definition, even for degenerate values (such as whitespace-only strings)
// whose feature vectors are zero.
func Distance(e Embedder, a, b string) float64 {
	if a == b {
		return 0
	}
	return CosineDistance(e.Embed(a), e.Embed(b))
}

// hashInto adds a feature of the given weight to v by signed feature
// hashing: the low bits of the feature's FNV-1a hash (strutil.FNV1a of its
// family prefix and key) pick the bucket, the high bit picks the sign.
// Signs make colliding features cancel in expectation, so unrelated values
// sit near cosine 0 even in small dimensions — smaller dims (the FastText
// tier) still carry a higher collision-noise floor, which is the intended
// fidelity gradient.
func hashInto(v Vector, hash uint32, weight float64) {
	w := float32(weight)
	if hash&0x80000000 != 0 {
		w = -w
	}
	v[hash%uint32(len(v))] += w
}

// normalize scales v to unit L2 norm in place and returns it; a zero
// vector stays zero.
func normalize(v Vector) Vector {
	var norm float64
	for _, x := range v {
		norm += float64(x) * float64(x)
	}
	if norm == 0 {
		return v
	}
	inv := float32(1 / math.Sqrt(norm))
	for i := range v {
		v[i] *= inv
	}
	return v
}

// WarmContext embeds values concurrently so that later synchronous lookups
// hit the cache in front of e (see Cached); on an embedder without one it
// only spends the work. Embedders are required to be safe for concurrent
// use. Every worker checks the context before each value, so a slow
// embedder's warm-up pool stops within one in-flight embedding per worker
// of the cancellation. Returns the context error if the warm-up was cut
// short (the cache simply stays partial).
func WarmContext(ctx context.Context, e Embedder, values []string, workers int) error {
	if workers < 2 || len(values) < 2*workers {
		for _, v := range values {
			if err := ctx.Err(); err != nil {
				return err
			}
			e.Embed(v)
		}
		return nil
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(values); i += workers {
				if ctx.Err() != nil {
					return
				}
				e.Embed(values[i])
			}
		}(w)
	}
	wg.Wait()
	return ctx.Err()
}
