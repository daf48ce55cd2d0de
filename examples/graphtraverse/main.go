// Graphtraverse shows inlining (the paper's §4 outlook): a query calling
// traverse() once per row is rewritten so every call site becomes the
// compiled WITH RECURSIVE subquery — one joint plan, zero context switches.
//
//	go run ./examples/graphtraverse
package main

import (
	"fmt"
	"log"
	"time"

	"plsqlaway"
	"plsqlaway/internal/sqlast"
	"plsqlaway/internal/sqlparser"
	"plsqlaway/internal/workload"
)

func main() {
	s := plsqlaway.NewEngine().NewSession()
	if err := workload.InstallGraph(s, 2048, 3); err != nil {
		log.Fatal(err)
	}
	if err := s.Exec(workload.TraverseSrc); err != nil {
		log.Fatal(err)
	}
	res, err := plsqlaway.Compile(workload.TraverseSrc, plsqlaway.Options{})
	if err != nil {
		log.Fatal(err)
	}
	if err := s.Exec("CREATE TABLE probes (start int); INSERT INTO probes SELECT DISTINCT e.src FROM edges AS e WHERE e.src < 64"); err != nil {
		log.Fatal(err)
	}

	outerSQL := "SELECT sum(traverse(p.start, 500)) FROM probes AS p"
	outer, err := sqlparser.ParseQuery(outerSQL)
	if err != nil {
		log.Fatal(err)
	}

	// Interpreted: one Q→f switch per probe row, three context switches
	// per hop inside.
	s.Counters().Reset()
	t0 := time.Now()
	interp, err := s.Query(outerSQL)
	if err != nil {
		log.Fatal(err)
	}
	dInterp := time.Since(t0)
	switches := s.Counters().CtxSwitchQF
	fq := s.Counters().CtxSwitchFQ

	// Inlined: every traverse(p.start, 500) call site becomes the compiled
	// WITH RECURSIVE subquery.
	inlined := res.Inline(outer)
	s.Counters().Reset()
	t0 = time.Now()
	comp, err := s.QueryPlanned(inlined)
	if err != nil {
		log.Fatal(err)
	}
	dComp := time.Since(t0)

	fmt.Printf("interpreted: %v  (%v; %d Q→f switches, %d f→Qi switches)\n",
		interp.Rows[0][0], dInterp.Round(time.Millisecond), switches, fq)
	fmt.Printf("inlined:     %v  (%v; %d Q→f switches, %d f→Qi switches)\n",
		comp.Rows[0][0], dComp.Round(time.Millisecond), s.Counters().CtxSwitchQF, s.Counters().CtxSwitchFQ)
	if a, b := interp.Rows[0][0], comp.Rows[0][0]; a.String() != b.String() {
		log.Fatalf("results differ: interpreted %v vs inlined %v", a, b)
	}
	fmt.Println("\nfirst 160 chars of the inlined query:")
	text := sqlast.DeparseQuery(inlined)
	if len(text) > 160 {
		text = text[:160] + "…"
	}
	fmt.Println(" ", text)
}
