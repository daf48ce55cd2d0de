package bench

import (
	"fmt"
	"strings"
	"time"

	"plsqlaway/internal/core"
	"plsqlaway/internal/profile"
	"plsqlaway/internal/sqltypes"
	"plsqlaway/internal/udf"
	"plsqlaway/internal/workload"
)

// AblationRow is one variant measurement.
type AblationRow struct {
	Variant string
	Ms      float64
	Note    string
}

// msOf times fn once after a warm-up run.
func msOf(fn func() error) (float64, error) {
	if err := fn(); err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := fn(); err != nil {
		return 0, err
	}
	return float64(time.Since(t0).Nanoseconds()) / 1e6, nil
}

// AblationDialect (A1): LATERAL chains vs. the SQLite nested-derived-table
// rewrite — same results, but not the same cost. The planner lowers the
// postgres dialect's trampoline to one Loop operator; the SQLite rewrite's
// recursive term is not a single-row step over the working table, so it
// stays a generic RecursiveUnion (EXPLAIN of its body: looped=0, 11 nodes,
// against looped=1 and the Loop alone) and runs several times slower.
func AblationDialect(steps int64) ([]AblationRow, error) {
	if steps == 0 {
		steps = 20_000
	}
	env, err := NewEnv(profile.PostgreSQL, "walk")
	if err != nil {
		return nil, err
	}
	s := env.S
	resLite, err := core.Compile(workload.WalkSrc, core.Options{Dialect: udf.DialectSQLite})
	if err != nil {
		return nil, err
	}
	if err := s.InstallCompiled("walk_lite", resLite.Params, resLite.ReturnType, resLite.Query); err != nil {
		return nil, err
	}
	var rows []AblationRow
	for _, v := range []struct{ name, fn string }{
		{"LATERAL chain (postgres dialect)", "walk_c"},
		{"nested derived tables (sqlite dialect)", "walk_lite"},
	} {
		fn := v.fn
		ms, err := msOf(func() error {
			s.Seed(42)
			_, err := s.Query(fmt.Sprintf("SELECT %s(coord(2, 2), $1, $2, $3)", fn),
				sqltypes.NewInt(winHuge), sqltypes.NewInt(looseHuge), sqltypes.NewInt(steps))
			return err
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{Variant: v.name, Ms: ms})
	}
	return rows, nil
}

// AblationSSAOpt (A2): SSA optimization passes on/off — effect on emitted
// query size and run time.
func AblationSSAOpt(steps int64) ([]AblationRow, error) {
	if steps == 0 {
		steps = 20_000
	}
	env, err := NewEnv(profile.PostgreSQL, "walk")
	if err != nil {
		return nil, err
	}
	s := env.S
	resRaw, err := core.Compile(workload.WalkSrc, core.Options{NoOptimize: true})
	if err != nil {
		return nil, err
	}
	if err := s.InstallCompiled("walk_raw", resRaw.Params, resRaw.ReturnType, resRaw.Query); err != nil {
		return nil, err
	}
	resOpt := env.Compiled["walk"]
	var rows []AblationRow
	for _, v := range []struct {
		name, fn string
		res      *core.Result
	}{
		{"SSA optimizations on", "walk_c", resOpt},
		{"SSA optimizations off", "walk_raw", resRaw},
	} {
		fn := v.fn
		ms, err := msOf(func() error {
			s.Seed(42)
			_, err := s.Query(fmt.Sprintf("SELECT %s(coord(2, 2), $1, $2, $3)", fn),
				sqltypes.NewInt(winHuge), sqltypes.NewInt(looseHuge), sqltypes.NewInt(steps))
			return err
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{Variant: v.name, Ms: ms,
			Note: fmt.Sprintf("%d label fns, %d chars of SQL", len(v.res.ANF.Funs), len(v.res.SQL))})
	}
	return rows, nil
}

// AblationFastPath (A3): the interpreter's simple-expression fast path
// on/off — explains the fibonacci row of Table 1.
func AblationFastPath(n int64) ([]AblationRow, error) {
	if n == 0 {
		n = 50_000
	}
	var rows []AblationRow
	for _, on := range []bool{true, false} {
		env, err := NewEnv(profile.PostgreSQL, "fibonacci")
		if err != nil {
			return nil, err
		}
		s := env.S
		s.Interp().FastPath = on
		ms, err := msOf(func() error {
			_, err := s.Query("SELECT fibonacci($1)", sqltypes.NewInt(n))
			return err
		})
		if err != nil {
			return nil, err
		}
		s.Counters().Reset()
		if _, err := s.Query("SELECT fibonacci($1)", sqltypes.NewInt(n)); err != nil {
			return nil, err
		}
		st, _, en, _ := s.Counters().Breakdown()
		name := "fast path on"
		if !on {
			name = "fast path off"
		}
		rows = append(rows, AblationRow{Variant: name, Ms: ms,
			Note: fmt.Sprintf("Exec·Start %.1f%%, Exec·End %.1f%%", st, en)})
	}
	return rows, nil
}

// AblationPlanCache (A4): the SPI plan cache on/off — isolates plan
// generation from plan instantiation cost on the interpreted path.
func AblationPlanCache(steps int64) ([]AblationRow, error) {
	if steps == 0 {
		steps = 5_000
	}
	var rows []AblationRow
	for _, on := range []bool{true, false} {
		env, err := NewEnv(profile.PostgreSQL, "walk")
		if err != nil {
			return nil, err
		}
		s := env.S
		env.E.PlanCache().SetEnabled(on)
		ms, err := msOf(func() error {
			s.Seed(42)
			_, err := s.Query("SELECT walk(coord(2, 2), $1, $2, $3)",
				sqltypes.NewInt(winHuge), sqltypes.NewInt(looseHuge), sqltypes.NewInt(steps))
			return err
		})
		if err != nil {
			return nil, err
		}
		name := "plan cache on"
		if !on {
			name = "plan cache off (replan per f→Qi)"
		}
		rows = append(rows, AblationRow{Variant: name, Ms: ms})
	}
	return rows, nil
}

// AblationIterate (A5): WITH RECURSIVE vs WITH ITERATE run time (Table 2
// covers space; this covers time).
func AblationIterate(steps int64) ([]AblationRow, error) {
	if steps == 0 {
		steps = 50_000
	}
	env, err := NewEnv(profile.PostgreSQL, "walk")
	if err != nil {
		return nil, err
	}
	if err := installTraceKept(env, "walk"); err != nil {
		return nil, err
	}
	s := env.S
	var rows []AblationRow
	for _, v := range []struct{ name, fn string }{
		{"WITH RECURSIVE (trace kept)", "walk_ct"},
		{"WITH ITERATE (latest row only)", "walk_ci"},
	} {
		fn := v.fn
		ms, err := msOf(func() error {
			s.Seed(42)
			_, err := s.Query(fmt.Sprintf("SELECT %s(coord(2, 2), $1, $2, $3)", fn),
				sqltypes.NewInt(winHuge), sqltypes.NewInt(looseHuge), sqltypes.NewInt(steps))
			return err
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{Variant: v.name, Ms: ms})
	}
	return rows, nil
}

// FormatAblation renders ablation rows.
func FormatAblation(title string, rows []AblationRow) string {
	var sb strings.Builder
	sb.WriteString(title + "\n")
	sb.WriteString(strings.Repeat("-", len(title)) + "\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-42s %10.1f ms", r.Variant, r.Ms)
		if r.Note != "" {
			fmt.Fprintf(&sb, "   (%s)", r.Note)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}
