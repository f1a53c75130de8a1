package match_test

import (
	"fmt"
	"testing"

	"fuzzyfd/internal/datagen"
	"fuzzyfd/internal/embed"
	"fuzzyfd/internal/match"
)

// syntheticColumns builds n columns of size values each, with overlapping
// content so matching does real work.
func syntheticColumns(nCols, size int) []match.Column {
	cols := make([]match.Column, nCols)
	for c := 0; c < nCols; c++ {
		vals := make([]string, size)
		for i := range vals {
			// Overlap across columns with per-column decoration.
			switch (i + c) % 3 {
			case 0:
				vals[i] = fmt.Sprintf("Entity %04d", i)
			case 1:
				vals[i] = fmt.Sprintf("entity %04d", i)
			default:
				vals[i] = fmt.Sprintf("Enttity %04d", i)
			}
		}
		cols[c] = match.NewColumn(fmt.Sprintf("c%d", c), vals)
	}
	return cols
}

// imdbIDColumns returns the aligning title-id columns of the generated IMDB
// benchmark: random fixed-width identifiers that share hashed trigrams but
// almost never a token, so blocking links them into one giant candidate
// component with well under 1 % of its cells filled — the shape
// syntheticColumns, whose components stay tiny, never produces.
func imdbIDColumns(totalTuples int) []match.Column {
	var cols []match.Column
	for _, t := range datagen.IMDB(datagen.IMDBConfig{Seed: 42, TotalTuples: totalTuples}) {
		if ci := t.ColumnIndex("tconst"); ci >= 0 {
			cols = append(cols, match.NewColumn(t.Name+".tconst", t.ColumnValues(ci)))
		}
	}
	return cols
}

func BenchmarkMatchDense(b *testing.B) {
	for _, size := range []int{100, 300} {
		cols := syntheticColumns(3, size)
		b.Run(fmt.Sprintf("n=%d", size), func(b *testing.B) {
			m := &match.Matcher{Emb: embed.NewMistral(), Opts: match.Options{Mode: match.ModeDense}}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Match(cols); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkMatchSparse(b *testing.B) {
	for _, c := range []struct {
		name string
		cols []match.Column
	}{
		{"n=300", syntheticColumns(3, 300)},
		{"n=1000", syntheticColumns(3, 1000)},
		{"imdb-ids", imdbIDColumns(8000)},
	} {
		cols := c.cols
		b.Run(c.name, func(b *testing.B) {
			m := &match.Matcher{Emb: embed.NewMistral(), Opts: match.Options{Mode: match.ModeSparse}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Match(cols); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
