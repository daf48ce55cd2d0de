// sqlshell is a minimal shell for the plsqlaway engine: it executes SQL
// script files and/or reads statements from stdin, printing result
// tables. PL/pgSQL functions work (CREATE FUNCTION … LANGUAGE plpgsql),
// and the meta-command \compile <fn> compiles a registered function away
// and installs it as <fn>_c.
//
// By default the shell embeds an engine in-process. With -connect it
// becomes a remote client of a running plsqld, speaking the wire
// protocol through the client package — same statements, same output.
//
// Usage:
//
//	sqlshell [-profile postgres|oracle|sqlite] [-seed N]
//	         [-connect host:port] [script.sql…]
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"plsqlaway/client"
	"plsqlaway/internal/catalog"
	"plsqlaway/internal/core"
	"plsqlaway/internal/engine"
	"plsqlaway/internal/obs"
	"plsqlaway/internal/profile"
	"plsqlaway/internal/sqlast"
)

// backend abstracts the local engine and the remote connection so the
// REPL is identical either way.
type backend interface {
	// Run executes a statement or script, dispatching query-vs-script
	// itself (so a failing statement is never re-executed by a fallback),
	// and returns the formatted result table ("" when no rows came back).
	Run(sql string) (string, error)
	// Meta handles a backslash command. quit=true exits the shell.
	Meta(cmd string) (quit bool)
	// Notices drains pending RAISE NOTICE output.
	Notices() []string
}

func main() {
	profName := flag.String("profile", "postgres", "engine profile: postgres, oracle, or sqlite")
	seed := flag.Uint64("seed", 42, "random() seed")
	connect := flag.String("connect", "", "connect to a plsqld at host:port instead of embedding an engine")
	flag.Parse()

	var b backend
	if *connect != "" {
		// The engine profile lives server-side; a -profile here would be
		// silently ignored, so reject the combination outright.
		profileSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "profile" {
				profileSet = true
			}
		})
		if profileSet {
			fatal(fmt.Errorf("-profile has no effect with -connect: the profile is chosen by the plsqld server"))
		}
		c, err := client.Dial(*connect, client.WithSeed(*seed))
		if err != nil {
			fatal(err)
		}
		defer c.Close()
		fmt.Printf("connected to %s (%s)\n", *connect, c.Server)
		b = &remoteBackend{c: c}
	} else {
		prof, err := profile.ByName(*profName)
		if err != nil {
			fatal(err)
		}
		// The embedded engine publishes into a private metrics registry so
		// \stats can summarize latency distributions (p50/p95/p99).
		reg := obs.NewRegistry()
		e := engine.New(engine.WithProfile(prof), engine.WithSeed(*seed), engine.WithMetricsRegistry(reg))
		b = &localBackend{s: e.NewSession(), reg: reg}
	}

	for _, path := range flag.Args() {
		src, err := os.ReadFile(path)
		if err != nil {
			fatal(err)
		}
		if err := runScript(b, string(src)); err != nil {
			fatal(fmt.Errorf("%s: %w", path, err))
		}
	}

	if fi, _ := os.Stdin.Stat(); flag.NArg() == 0 || fi.Mode()&os.ModeCharDevice != 0 {
		repl(b)
	}
}

// runScript executes a file, printing rows if it was a single query.
func runScript(b backend, src string) error {
	out, err := b.Run(src)
	if err != nil {
		return err
	}
	fmt.Print(out)
	return nil
}

func repl(b backend) {
	fmt.Println("plsqlaway shell — end statements with ';', meta: \\compile <fn>, \\tables, \\functions, \\q")
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var buf strings.Builder
	prompt := func() {
		if buf.Len() == 0 {
			fmt.Print("sql> ")
		} else {
			fmt.Print("...> ")
		}
	}
	prompt()
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, "\\") {
			if b.Meta(trimmed) {
				return
			}
			prompt()
			continue
		}
		buf.WriteString(line)
		buf.WriteString("\n")
		if strings.HasSuffix(trimmed, ";") {
			stmt := buf.String()
			buf.Reset()
			out, err := b.Run(stmt)
			if err != nil {
				fmt.Println("error:", err)
			} else if out != "" {
				fmt.Print(out)
			} else {
				fmt.Println("ok")
			}
			for _, n := range b.Notices() {
				fmt.Println("NOTICE:", n)
			}
		}
		prompt()
	}
}

// ---------------------------------------------------------------------------
// local backend: the embedded engine
// ---------------------------------------------------------------------------

type localBackend struct {
	s   *engine.Session // the shell's one session: seed, notices, counters
	reg *obs.Registry   // the engine's metrics registry, for \stats
}

func (b *localBackend) Run(sql string) (string, error) {
	res, err := b.s.Run(sql)
	if err != nil {
		return "", err
	}
	if res == nil {
		return "", nil
	}
	return res.Format(), nil
}

func (b *localBackend) Notices() []string {
	return b.s.DrainNotices()
}

func (b *localBackend) Meta(cmd string) bool {
	fields := strings.Fields(cmd)
	switch fields[0] {
	case "\\q", "\\quit":
		return true
	case "\\tables":
		for _, t := range b.s.Catalog().TableNames() {
			fmt.Println(t)
		}
	case "\\functions":
		for _, f := range b.s.Catalog().FunctionNames() {
			fn, _ := b.s.Catalog().Function(f)
			fmt.Printf("%s (%s)\n", f, fn.Kind)
		}
	case "\\compile":
		if len(fields) < 2 {
			fmt.Println("usage: \\compile <function>")
			return false
		}
		if err := compileAway(b.s, fields[1]); err != nil {
			fmt.Println("error:", err)
		}
	case "\\stats":
		st := b.s.StorageStats()
		fmt.Printf("storage  page writes %d · tuples written %d · commits %d · vacuums %d (reclaimed %d)\n",
			st.PageWrites, st.TuplesWritten, st.Commits, st.Vacuums, st.VersionsReclaimed)
		printHistogramSummaries(b.reg)
	default:
		fmt.Println("unknown meta command", fields[0])
	}
	return false
}

// printHistogramSummaries renders every histogram family in the registry
// as one quantile-summary line per series — p50/p95/p99 instead of the
// raw bucket dump, the shape an operator actually reads at the shell.
func printHistogramSummaries(reg *obs.Registry) {
	for _, m := range reg.Gather() {
		if m.Type != "histogram" {
			continue
		}
		seconds := strings.HasSuffix(m.Name, "_seconds")
		for _, s := range m.Samples {
			if s.Count == nil || *s.Count == 0 || s.P50 == nil {
				continue
			}
			name := m.Name
			if s.Label != "" {
				name += "{" + m.Label + "=" + s.Label + "}"
			}
			if seconds {
				fmt.Printf("%-34s count %d · p50 %s · p95 %s · p99 %s\n",
					name, *s.Count, fmtSeconds(*s.P50), fmtSeconds(*s.P95), fmtSeconds(*s.P99))
			} else {
				fmt.Printf("%-34s count %d · p50 %.1f · p95 %.1f · p99 %.1f\n",
					name, *s.Count, *s.P50, *s.P95, *s.P99)
			}
		}
	}
}

func fmtSeconds(v float64) string {
	return time.Duration(v * float64(time.Second)).Round(time.Microsecond).String()
}

// compileAway compiles a registered PL/pgSQL function and installs the
// pure-SQL twin as <name>_c.
func compileAway(s *engine.Session, name string) error {
	fn, ok := s.Catalog().Function(name)
	if !ok {
		return fmt.Errorf("function %q not found", name)
	}
	if fn.Kind != catalog.FuncPLpgSQL {
		return fmt.Errorf("function %q is %s, not plpgsql", name, fn.Kind)
	}
	res, err := core.CompileFunction(fn.PL, core.Options{})
	if err != nil {
		return err
	}
	if err := s.InstallCompiled(name+"_c", res.Params, res.ReturnType, res.Query); err != nil {
		return err
	}
	fmt.Printf("installed %s_c; emitted SQL:\n%s\n", name, sqlast.DeparseQuery(res.Query))
	return nil
}

// ---------------------------------------------------------------------------
// remote backend: a plsqld connection
// ---------------------------------------------------------------------------

type remoteBackend struct {
	c *client.Conn
}

// Run sends the text as one simple-query frame; the server dispatches
// query vs script, so no client-side fallback re-executes anything.
func (b *remoteBackend) Run(sql string) (string, error) {
	res, err := b.c.Query(sql)
	if err != nil {
		return "", err
	}
	if res == nil {
		return "", nil
	}
	return res.Format(), nil
}

// Notices drains the NOTICE messages the server streamed with the last
// responses (RAISE NOTICE output, transaction-control warnings).
func (b *remoteBackend) Notices() []string { return b.c.Notices() }

func (b *remoteBackend) Meta(cmd string) bool {
	fields := strings.Fields(cmd)
	switch fields[0] {
	case "\\q", "\\quit":
		return true
	case "\\seed":
		if len(fields) < 2 {
			fmt.Println("usage: \\seed <n>")
			return false
		}
		var n uint64
		if _, err := fmt.Sscanf(fields[1], "%d", &n); err != nil {
			fmt.Println("error:", err)
			return false
		}
		if err := b.c.Seed(n); err != nil {
			fmt.Println("error:", err)
		}
	case "\\stats":
		st, err := b.c.Stats()
		if err != nil {
			// A dead connection fails fast (client.ErrClosed) instead of
			// hanging on a round-trip the server will never answer.
			fmt.Println("error:", err)
			return false
		}
		fmt.Printf("storage  page writes %d · pages alloc %d · tuples written %d · commits %d · vacuums %d (reclaimed %d)\n",
			st.PageWrites, st.PagesAlloc, st.TuplesWritten, st.Commits, st.Vacuums, st.VersionsReclaimed)
		if st.WALRecords > 0 || st.Checkpoints > 0 {
			fmt.Printf("wal      records %d (%d bytes) · fsyncs %d · checkpoints %d\n",
				st.WALRecords, st.WALBytes, st.WALFsyncs, st.Checkpoints)
		}
		fmt.Printf("plans    inlined %d · specialized %d · evictions %d · cache hits %d misses %d\n",
			st.Plans.PlansInlined, st.Plans.SpecializedPlans, st.Plans.CacheEvictions,
			st.Plans.CacheHits, st.Plans.CacheMisses)
		fmt.Printf("server   active connections %d\n", st.ActiveConns)
	default:
		fmt.Printf("meta command %s is not available over -connect (try \\seed, \\stats, \\q)\n", fields[0])
	}
	return false
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sqlshell:", err)
	os.Exit(1)
}
