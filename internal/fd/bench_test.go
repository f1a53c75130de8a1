package fd_test

import (
	"fmt"
	"testing"

	"fuzzyfd/internal/datagen"
	"fuzzyfd/internal/fd"
)

// Package-level micro-benchmarks of the Full Disjunction substrates. The
// paper-level benchmarks live at the repository root (bench_test.go).

func BenchmarkFullDisjunctionIMDB(b *testing.B) {
	for _, size := range []int{1000, 3000} {
		tables := datagen.IMDB(datagen.IMDBConfig{Seed: 42, TotalTuples: size})
		schema := fd.IdentitySchema(tables)
		b.Run(fmt.Sprintf("S=%d", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := fd.FullDisjunction(tables, schema, fd.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkOperators(b *testing.B) {
	bench := datagen.EMBench(datagen.EMConfig{Seed: 42, Entities: 100})
	schema := fd.IdentitySchema(bench.Tables)
	b.Run("inner-join", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := fd.InnerJoin(bench.Tables, schema, fd.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("outer-union", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := fd.OuterUnionOnly(bench.Tables, schema); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("outer-join-chain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := fd.OuterJoinChain(bench.Tables, schema, nil, fd.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full-disjunction", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := fd.FullDisjunction(bench.Tables, schema, fd.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
