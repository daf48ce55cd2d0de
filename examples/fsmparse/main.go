// Fsmparse demonstrates two §3 results on the parse() workload: the SQLite
// dialect (a system with no PL/SQL at all runs the compiled form after the
// LATERAL-free rewrite) and the WITH ITERATE space win of Table 2. It
// exits non-zero unless WITH RECURSIVE writes more pages than WITH
// ITERATE.
//
//	go run ./examples/fsmparse
package main

import (
	"fmt"
	"log"

	"plsqlaway"
	"plsqlaway/internal/workload"
)

func main() {
	// An engine with the SQLite profile: CREATE FUNCTION … plpgsql is
	// rejected, LATERAL is rejected — PL/SQL simply does not exist here.
	lite := plsqlaway.NewEngine(plsqlaway.WithProfile(plsqlaway.ProfileSQLite)).NewSession()
	if err := workload.InstallFSM(lite); err != nil {
		log.Fatal(err)
	}
	if err := lite.Exec(workload.ParseSrc); err == nil {
		log.Fatal("sqlite profile should reject plpgsql")
	} else {
		fmt.Println("sqlite profile rejects PL/pgSQL, as expected:")
		fmt.Println("   ", err)
	}

	// Compile with the SQLite dialect: no LATERAL anywhere.
	res, err := plsqlaway.Compile(workload.ParseSrc, plsqlaway.Options{Dialect: plsqlaway.DialectSQLite})
	if err != nil {
		log.Fatal(err)
	}
	if err := plsqlaway.Install(lite, "parse", res); err != nil {
		log.Fatal(err)
	}
	input := workload.MakeParseInput(300, 5)
	v, err := lite.QueryValue("SELECT parse($1)", plsqlaway.Text(input))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncompiled parse() now runs on the PL/SQL-less engine: %v tokens in %d chars\n\n", v, len(input))

	// WITH ITERATE vs WITH RECURSIVE: page-write accounting (Table 2 in
	// miniature). The planner lowers either spelling of a plain call to a
	// Loop that keeps no trace, so parse_rec is installed with its trace
	// kept: the vanilla WITH RECURSIVE evaluation the paper measures.
	pg := plsqlaway.NewEngine().NewSession()
	if err := workload.InstallFSM(pg); err != nil {
		log.Fatal(err)
	}
	rec, err := plsqlaway.Compile(workload.ParseSrc, plsqlaway.Options{})
	if err != nil {
		log.Fatal(err)
	}
	iter, err := plsqlaway.Compile(workload.ParseSrc, plsqlaway.Options{Iterate: true})
	if err != nil {
		log.Fatal(err)
	}
	rec.Query = workload.TraceKept(rec.Query)
	if err := plsqlaway.Install(pg, "parse_rec", rec); err != nil {
		log.Fatal(err)
	}
	if err := plsqlaway.Install(pg, "parse_iter", iter); err != nil {
		log.Fatal(err)
	}
	big := plsqlaway.Text(workload.MakeParseInput(5000, 5))

	pg.StorageStats().Reset()
	vRec, err := pg.QueryValue("SELECT parse_rec($1)", big)
	if err != nil {
		log.Fatal(err)
	}
	recWrites := pg.StorageStats().PageWrites

	pg.StorageStats().Reset()
	vIter, err := pg.QueryValue("SELECT parse_iter($1)", big)
	if err != nil {
		log.Fatal(err)
	}
	iterWrites := pg.StorageStats().PageWrites
	if vRec.String() != vIter.String() {
		log.Fatalf("results differ: WITH RECURSIVE %v vs WITH ITERATE %v", vRec, vIter)
	}

	fmt.Println("buffer page writes for 5 000 input characters (Table 2 in miniature):")
	fmt.Printf("  WITH RECURSIVE: %6d pages (the whole tail-recursion trace)\n", recWrites)
	fmt.Printf("  WITH ITERATE:   %6d pages (latest activation only)\n", iterWrites)
	if recWrites <= iterWrites {
		log.Fatalf("WITH RECURSIVE wrote %d pages, not more than WITH ITERATE's %d", recWrites, iterWrites)
	}
}
