package fuzzyfd

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"fuzzyfd/internal/datagen"
)

// streamRows drains Session.StreamContext into rows and provenance, in
// order.
func streamRows(t *testing.T, s *Session) ([]Row, [][]TID, *Result) {
	t.Helper()
	var rows []Row
	var provs [][]TID
	res, err := s.StreamContext(context.Background(), func(schema Schema, row Row, prov []TID) error {
		rows = append(rows, row)
		provs = append(provs, prov)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return rows, provs, res
}

// TestSessionStreamMatchesIntegrate: Session.StreamContext emits
// Integrate's rows with their provenance, in Integrate's order, at every
// batch of an incremental feed, sequentially and with parallel FD. A
// stream after an add integrates the new tables; one after an Integrate
// reads Last.
func TestSessionStreamMatchesIntegrate(t *testing.T) {
	tables := datagen.IMDB(datagen.IMDBConfig{Seed: 7, TotalTuples: 240})
	for _, opts := range [][]Option{nil, {WithParallelFD(4)}, {WithEquiJoin()}, {WithEquiJoin(), WithParallelFD(4)}} {
		streamSess, err := NewSession(opts...)
		if err != nil {
			t.Fatal(err)
		}
		oracleSess, err := NewSession(opts...)
		if err != nil {
			t.Fatal(err)
		}
		for _, batch := range chunkTables(tables, 2) {
			streamSess.Add(batch...)
			oracleSess.Add(batch...)
			rows, provs, res := streamRows(t, streamSess)
			want, err := oracleSess.Integrate()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rows, want.Table.Rows) || !reflect.DeepEqual(provs, want.Prov) {
				t.Fatalf("stream differs from Integrate at %d tables", streamSess.Tables())
			}
			if res != streamSess.Last() || res.FDStats.Output != len(rows) {
				t.Fatalf("the stream's Result is not the Last it streamed (Output %d, emitted %d)", res.FDStats.Output, len(rows))
			}
			again, _, res2 := streamRows(t, streamSess)
			if res2 != res || !reflect.DeepEqual(again, rows) {
				t.Fatal("a stream with nothing added did not read Last")
			}
		}
	}
}

// TestSessionStreamEmitError: a failing emit aborts with the sink error
// and leaves the session able to integrate normally afterwards.
func TestSessionStreamEmitError(t *testing.T) {
	s, err := NewSession()
	if err != nil {
		t.Fatal(err)
	}
	a := NewTable("a", "k", "x")
	a.MustAppendRow(String("k1"), String("v1"))
	b := NewTable("b", "k", "y")
	b.MustAppendRow(String("k1"), String("v2"))
	s.Add(a, b)
	boom := errors.New("sink failed")
	if _, err := s.StreamContext(context.Background(), func(Schema, Row, []TID) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("want sink error, got %v", err)
	}
	res, err := s.Integrate()
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() == 0 {
		t.Fatal("session broken after aborted stream")
	}
}
