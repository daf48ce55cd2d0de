// Robotwalk runs the paper's running example end to end: the Markov-policy
// robot of Figures 1–3, interpreted vs compiled, with the context-switch
// profile of each.
//
//	go run ./examples/robotwalk
package main

import (
	"fmt"
	"log"
	"time"

	"plsqlaway"
	"plsqlaway/internal/workload"
)

func main() {
	s := plsqlaway.NewEngine(plsqlaway.WithSeed(7)).NewSession()

	// Build the 5×5 grid world: rewards, straying model, and the policy
	// computed by value iteration (the paper's "precomputed by a Markov
	// decision process").
	world := workload.NewRobotWorld(5, 5, 7)
	if err := world.Install(s); err != nil {
		log.Fatal(err)
	}
	fmt.Println("policy (value iteration, γ=0.9):")
	for y := world.H - 1; y >= 0; y-- {
		for x := 0; x < world.W; x++ {
			fmt.Printf(" %s", world.Policy[y][x])
		}
		fmt.Println()
	}

	// Interpreted original + compiled twin.
	if err := s.Exec(workload.WalkSrc); err != nil {
		log.Fatal(err)
	}
	res, err := plsqlaway.Compile(workload.WalkSrc, plsqlaway.Options{})
	if err != nil {
		log.Fatal(err)
	}
	if err := plsqlaway.Install(s, "walk_c", res); err != nil {
		log.Fatal(err)
	}

	const steps = 10_000
	args := []plsqlaway.Value{
		plsqlaway.Coord(2, 2), plsqlaway.Int(1_000_000), plsqlaway.Int(-1_000_000), plsqlaway.Int(steps),
	}

	run := func(label, call string) plsqlaway.Value {
		s.Seed(42)
		s.Counters().Reset()
		t0 := time.Now()
		v, err := s.QueryValue(call, args...)
		if err != nil {
			log.Fatal(err)
		}
		d := time.Since(t0)
		c := s.Counters()
		fmt.Printf("%-22s result=%v  time=%v  f→Qi switches=%d  executor starts=%d\n",
			label, v, d.Round(time.Millisecond), c.CtxSwitchFQ, c.ExecutorStarts)
		return v
	}

	fmt.Printf("\nwalk from (2,2), %d steps:\n", steps)
	a := run("interpreted PL/pgSQL:", "SELECT walk($1, $2, $3, $4)")
	b := run("compiled (recursive):", "SELECT walk_c($1, $2, $3, $4)")
	if a.String() != b.String() {
		log.Fatalf("results differ: %v vs %v", a, b)
	}
	fmt.Println("\nidentical results — and the compiled form needed no PL/SQL interpreter at all.")
}
