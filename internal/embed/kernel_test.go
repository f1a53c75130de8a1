package embed_test

import (
	"encoding/binary"
	"fmt"
	reference "hash/fnv"
	"math"
	"math/rand"
	"testing"

	"fuzzyfd/internal/datagen"
	"fuzzyfd/internal/embed"
	"fuzzyfd/internal/strutil"
	"fuzzyfd/internal/table"
)

// kernelError reports how the support kernel fails to reproduce Dot and
// CosineDistance on (a, b) to the bit, or nil; sa and sb are the supports.
func kernelError(a, b embed.Vector, sa, sb []uint64) error {
	if got, want := embed.SupportDot(a, b, sa, sb), embed.Dot(a, b); !sameBits(got, want) {
		return fmt.Errorf("SupportDot = %v (%#x), Dot = %v (%#x)", got, math.Float64bits(got), want, math.Float64bits(want))
	}
	if got, want := embed.SupportDistance(a, b, sa, sb), embed.CosineDistance(a, b); !sameBits(got, want) {
		return fmt.Errorf("SupportDistance = %v, CosineDistance = %v", got, want)
	}
	return nil
}

// sameBits compares two sums bit for bit, except that any NaN equals any
// NaN: when two NaNs meet, the hardware keeps one operand's payload, and
// which one depends on how the compiler ordered the add.
func sameBits(x, y float64) bool {
	if math.IsNaN(x) || math.IsNaN(y) {
		return math.IsNaN(x) && math.IsNaN(y)
	}
	return math.Float64bits(x) == math.Float64bits(y)
}

func checkKernel(t *testing.T, what string, a, b embed.Vector) {
	t.Helper()
	if err := kernelError(a, b, embed.Support(a), embed.Support(b)); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
}

// benchmarkValues returns distinct cell values of the three generated
// benchmarks the matcher runs on, plus the degenerate values that embed to
// zero vectors under the folding tiers.
func benchmarkValues() []string {
	var out []string
	seen := map[string]bool{}
	add := func(vs ...string) {
		for _, v := range vs {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	add("", " ", "\t", "  \n ")
	for _, s := range datagen.AutoJoin(datagen.AutoJoinConfig{Seed: 42, Sets: 6, ValuesPerColumn: 20}) {
		for _, c := range s.Columns {
			add(c.Values...)
		}
	}
	addTables := func(ts []*table.Table, perColumn int) {
		for _, tb := range ts {
			for ci := range tb.Columns {
				vs := tb.ColumnValues(ci)
				add(vs[:min(len(vs), perColumn)]...)
			}
		}
	}
	addTables(datagen.IMDB(datagen.IMDBConfig{Seed: 42, TotalTuples: 600}), 15)
	addTables(datagen.EMBench(datagen.EMConfig{Seed: 1, Entities: 40}).Tables, 15)
	return out
}

// Every pair of benchmark values under every tier.
func TestSupportDotEqualsDotOnBenchmarkValues(t *testing.T) {
	values := benchmarkValues()
	if len(values) < 300 {
		t.Fatalf("only %d distinct values", len(values))
	}
	for _, name := range embed.ModelNames() {
		m, err := embed.New(name)
		if err != nil {
			t.Fatal(err)
		}
		vecs := make([]embed.Vector, len(values))
		sups := make([][]uint64, len(values))
		for i, v := range values {
			vecs[i] = m.Embed(v)
			sups[i] = embed.Support(vecs[i])
		}
		if embed.Support(m.Embed("")) == nil {
			t.Fatalf("%s: the empty value has no support", name)
		}
		for i := range vecs {
			for j := i; j < len(vecs); j++ {
				if err := kernelError(vecs[i], vecs[j], sups[i], sups[j]); err != nil {
					t.Fatalf("%s: %q · %q: %v", name, values[i], values[j], err)
				}
			}
		}
	}
}

// randomSparse returns a vector of length n whose coordinates are zero with
// probability 1 − density, and otherwise of random sign, with magnitudes
// from subnormal to large.
func randomSparse(r *rand.Rand, n int, density float64) embed.Vector {
	v := make(embed.Vector, n)
	for i := range v {
		if r.Float64() >= density {
			continue
		}
		x := float32(r.NormFloat64())
		switch r.Intn(8) {
		case 0:
			x *= 1e-40 // subnormal in float32
		case 1:
			x *= 1e30
		}
		if x == 0 {
			x = math.SmallestNonzeroFloat32
		}
		v[i] = x
	}
	return v
}

func TestSupportDotEqualsDotOnRandomVectors(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 63, 64, 65, 200} {
		for _, density := range []float64{0, 0.05, 0.3, 0.9, 1} {
			for trial := 0; trial < 200; trial++ {
				a, b := randomSparse(r, n, density), randomSparse(r, n, density)
				checkKernel(t, "random", a, b)
				checkKernel(t, "self", a, a)
				// Exact cancellations: a against −a, and [a, −a] against
				// [a, a], whose sum returns to +0 through a·a.
				neg := make(embed.Vector, n)
				for i, x := range a {
					neg[i] = -x
				}
				checkKernel(t, "negated", a, neg)
				checkKernel(t, "negated sum", append(append(embed.Vector{}, a...), neg...), append(append(embed.Vector{}, a...), a...))
			}
		}
		zero := make(embed.Vector, n)
		checkKernel(t, "zero", zero, zero)
		checkKernel(t, "zero and dense", zero, randomSparse(r, n, 1))
	}
}

// A non-finite coordinate voids the exactness argument (NaN·0, Inf·0), so
// the vector has no support and SupportDot returns what Dot returns.
func TestSupportDotNonFiniteFallsBackToDot(t *testing.T) {
	for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		a := embed.Vector{0, 1, 0, bad, 0}
		b := embed.Vector{1, 0, 0, 0, 2}
		if s := embed.Support(a); s != nil {
			t.Fatalf("Support of a vector holding %v = %v, want nil", bad, s)
		}
		if err := kernelError(a, b, embed.Support(a), embed.Support(b)); err != nil {
			t.Errorf("with %v: %v", bad, err)
		}
		if want := embed.Dot(a, b); !math.IsNaN(want) {
			t.Fatalf("Dot with %v·0 = %v, want NaN", bad, want)
		}
	}
}

// vectorsFrom decodes raw little-endian float32 pairs into two vectors of
// equal length, zeroing a's coordinate i when bit i%64 of mask is set and
// b's when bit (i+32)%64 is, so the fuzzer controls sparsity directly.
func vectorsFrom(raw []byte, mask uint64) (a, b embed.Vector) {
	n := len(raw) / 8
	a, b = make(embed.Vector, n), make(embed.Vector, n)
	for i := range n {
		a[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[8*i:]))
		b[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[8*i+4:]))
		if mask&(1<<(i%64)) != 0 {
			a[i] = 0
		}
		if mask&(1<<((i+32)%64)) != 0 {
			b[i] = 0
		}
	}
	return a, b
}

func FuzzSupportDot(f *testing.F) {
	f.Add([]byte{}, uint64(0))
	f.Add([]byte{0, 0, 128, 63, 0, 0, 128, 191}, uint64(0))                            // 1 · −1
	f.Add([]byte{0, 0, 128, 63, 0, 0, 128, 63, 0, 0, 192, 127, 0, 0, 0, 0}, uint64(0)) // NaN · 0
	f.Fuzz(func(t *testing.T, raw []byte, mask uint64) {
		a, b := vectorsFrom(raw, mask)
		if err := kernelError(a, b, embed.Support(a), embed.Support(b)); err != nil {
			t.Fatalf("%v on %v · %v", err, a, b)
		}
	})
}

// Feature hashing streams a feature's family prefix and key through FNV-1a
// without concatenating them; the sum must be hash/fnv's of the
// concatenation.
func FuzzFeatureHash(f *testing.F) {
	for _, seed := range [][2]string{{"", ""}, {"G:", "#be"}, {"TS:", "new york"}, {"L:", "Q1490"}, {"V:", "Renée\xff"}} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, family, key string) {
		h := reference.New32a()
		h.Write([]byte(family + key))
		if got, want := strutil.FNV1a(family, key), h.Sum32(); got != want {
			t.Fatalf("FNV1a(%q, %q) = %#x, hash/fnv of the concatenation = %#x", family, key, got, want)
		}
	})
}
