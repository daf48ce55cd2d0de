// Quickstart: compile a PL/pgSQL function away and watch the context
// switches disappear — then serve the same engine over TCP and call the
// compiled function from a remote client.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"time"

	"plsqlaway"
	"plsqlaway/client"
)

const gcdSrc = `
CREATE FUNCTION gcd(x int, y int) RETURNS int AS $$
DECLARE t int;
BEGIN
  WHILE y <> 0 LOOP
    t = y;
    y = x % y;
    x = t;
  END LOOP;
  RETURN x;
END;
$$ LANGUAGE plpgsql`

func main() {
	e := plsqlaway.NewEngine()
	s := e.NewSession()

	// 1. Register the interpreted original.
	if err := s.Exec(gcdSrc); err != nil {
		log.Fatal(err)
	}

	// 2. Compile it away: PL/SQL → SSA → ANF → tail-recursive UDF →
	//    WITH RECURSIVE.
	res, err := plsqlaway.Compile(gcdSrc, plsqlaway.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("── the emitted pure-SQL form ──")
	fmt.Println(res.SQL)
	fmt.Println()

	// 3. Install the compiled twin and compare.
	if err := plsqlaway.Install(s, "gcd_c", res); err != nil {
		log.Fatal(err)
	}
	a, err := s.QueryValue("SELECT gcd($1, $2)", plsqlaway.Int(270), plsqlaway.Int(192))
	if err != nil {
		log.Fatal(err)
	}
	b, err := s.QueryValue("SELECT gcd_c($1, $2)", plsqlaway.Int(270), plsqlaway.Int(192))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("interpreted gcd(270, 192) = %v\n", a)
	fmt.Printf("compiled    gcd(270, 192) = %v\n", b)
	if a.String() != b.String() {
		log.Fatalf("results differ: interpreted %v vs compiled %v", a, b)
	}

	// 4. The intermediate forms are all inspectable.
	fmt.Println("\n── ANF (the paper's Figure 6 shape) ──")
	fmt.Print(res.ANF.Dump())

	// 5. Serve the engine over TCP and call the compiled function
	//    remotely (in production this is `plsqld`, and the client dials
	//    across machines).
	srv := plsqlaway.NewServer(e, plsqlaway.ServerOptions{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(ln)
	conn, err := client.Dial(ln.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	r, err := conn.QueryValue("SELECT gcd_c($1, $2)", client.Int(270), client.Int(192))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n── over the wire ──\nremote gcd_c(270, 192) = %v\n", r)
	if r.String() != a.String() {
		log.Fatalf("results differ: remote %v vs local %v", r, a)
	}
	conn.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	srv.Shutdown(ctx)
}
