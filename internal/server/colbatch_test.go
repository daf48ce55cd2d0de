package server

import (
	"bufio"
	"math"
	"testing"

	"plsqlaway/internal/engine"
	"plsqlaway/internal/sqltypes"
	"plsqlaway/internal/wire"
)

// sameValue is strict identity: the same kind, and floats bit for bit, so
// 1 and 1.0 differ and so do -0.0 and 0.0.
func sameValue(a, b sqltypes.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	if a.Kind() == sqltypes.KindFloat {
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	}
	return sqltypes.Identical(a, b)
}

// wireRows reads one response and returns its rows as decoded values.
func wireRows(t *testing.T, br *bufio.Reader) [][]sqltypes.Value {
	t.Helper()
	var rows [][]sqltypes.Value
	for {
		switch m := mustRead(t, br).(type) {
		case *wire.RowDesc:
		case *wire.ColBatch:
			rows = append(rows, m.Rows()...)
		case *wire.Done:
			return rows
		case *wire.Error:
			t.Fatalf("error: %s", m.Message)
		default:
			t.Fatalf("frame %T inside a response", m)
		}
	}
}

// TestColBatchEncoderKinds pins the row → ColBatch encoder: every value
// kind, NULLs anywhere in a column, mixed-kind columns, all-NULL columns,
// signed zeros and empty text must reach the client exactly as a local
// session returns them — kind and float bits included — through a Query
// frame and through Parse + Execute alike.
func TestColBatchEncoderKinds(t *testing.T) {
	e := engine.New(engine.WithSeed(42))
	s := e.NewSession()
	if err := s.Exec(`CREATE TABLE tn (k int, i int, f float, s text);
		INSERT INTO tn VALUES (1, 10, 1.5, 'a'), (2, NULL, 2.5, 'b'), (3, 30, NULL, 'c'),
			(4, 40, 4.5, NULL), (5, NULL, NULL, NULL), (6, 60, -0.0, '')`); err != nil {
		t.Fatal(err)
	}
	_, addr := startEngine(t, e)
	_, br, bw := rawConn(t, addr)
	local := e.NewSession()

	// Each UNION ALL arm arrives in a batch of its own; a VALUES list is
	// one batch, so its rows share the lanes of one frame.
	queries := []string{
		"SELECT 1 UNION ALL SELECT 1.5 UNION ALL SELECT 'x'",
		"SELECT * FROM (VALUES (1), (1.5), ('x')) AS v(x)",
		"SELECT * FROM (VALUES (NULL), (1)) AS v(x)",
		"SELECT * FROM (VALUES (1), (NULL), (2.5)) AS v(x)",
		"SELECT * FROM (VALUES (NULL), (NULL)) AS v(x)",
		"SELECT * FROM (VALUES (coord(1, 2)), (NULL)) AS v(x)",
		"SELECT * FROM (VALUES (NULL), (coord(1, 2))) AS v(x)",
		"SELECT * FROM (VALUES (true), (NULL), (1)) AS v(x)",
		"SELECT * FROM (VALUES (1), (1.0)) AS v(x)",
		"SELECT * FROM (VALUES (-0.0, ''), (0.0, 'a'), (NULL, NULL)) AS v(x, y)",
		"SELECT NULL UNION ALL SELECT 1",
		"SELECT 1 UNION ALL SELECT NULL UNION ALL SELECT 2.5",
		"SELECT NULL UNION ALL SELECT NULL",
		"SELECT coord(1, 2) UNION ALL SELECT NULL",
		"SELECT NULL UNION ALL SELECT coord(1, 2)",
		"SELECT true UNION ALL SELECT NULL UNION ALL SELECT 1",
		"SELECT 1 UNION ALL SELECT 1.0",
		"SELECT -0.0, ''",
		"SELECT k, i, f, s FROM tn ORDER BY k",
		"SELECT NULL, k FROM tn ORDER BY k",
		"SELECT i, f, s FROM tn WHERE k = 5",
	}
	for _, q := range queries {
		res, err := local.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		for _, via := range []string{"Query", "Execute"} {
			if via == "Query" {
				wire.WriteMessage(bw, &wire.Query{SQL: q})
			} else {
				wire.WriteMessage(bw, &wire.Parse{Name: "s", SQL: q})
				bw.Flush()
				if m, ok := mustRead(t, br).(*wire.ParseOK); !ok {
					t.Fatalf("%s: Parse answered %#v", q, m)
				}
				wire.WriteMessage(bw, &wire.Execute{Name: "s"})
			}
			bw.Flush()
			got := wireRows(t, br)
			if len(got) != len(res.Rows) {
				t.Fatalf("%s via %s: %d rows, local %d", q, via, len(got), len(res.Rows))
			}
			for r, row := range res.Rows {
				if len(got[r]) != len(row) {
					t.Fatalf("%s via %s: row %d has %d columns, local %d", q, via, r, len(got[r]), len(row))
				}
				for c, v := range row {
					if !sameValue(v, got[r][c]) {
						t.Errorf("%s via %s: row %d col %d: %v (%s) over the wire, %v (%s) locally",
							q, via, r, c, got[r][c], got[r][c].Kind(), v, v.Kind())
					}
				}
			}
		}
	}
}
