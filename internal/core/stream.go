package core

import (
	"context"

	"fuzzyfd/internal/fd"
	"fuzzyfd/internal/table"
)

// Stream is the one-shot form of Session.StreamContext: a throwaway
// Session — one Add, one StreamContext — so rows arrive in the order
// contract fuzzyfd.Session.StreamContext states. The Result carries no
// materialized Table or Prov; the rows went to emit.
func Stream(ctx context.Context, tables []*table.Table, cfg Config, emit func(schema fd.Schema, row table.Row, prov []fd.TID) error) (*Result, error) {
	s := NewSession(cfg)
	s.Add(tables...)
	return s.StreamContext(ctx, emit)
}
