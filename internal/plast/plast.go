// Package plast defines the abstract syntax tree for PL/pgSQL function
// bodies: declarations, assignments, control flow (IF / LOOP / WHILE / FOR
// with EXIT and CONTINUE, optionally labeled), RETURN, PERFORM, and RAISE.
// Expressions inside statements are regular SQL expressions (sqlast.Expr),
// exactly as in PostgreSQL where the main parser is invoked for every
// PL/pgSQL expression.
package plast

import (
	"plsqlaway/internal/sqlast"
	"plsqlaway/internal/sqltypes"
)

// Param is a function parameter with its declared type.
type Param struct {
	Name string
	Type sqltypes.Type
}

// Decl is one DECLARE entry: name type [= expr].
type Decl struct {
	Name string
	Type sqltypes.Type
	Init sqlast.Expr // nil means NULL-initialized
}

// Function is a parsed PL/pgSQL function.
type Function struct {
	Name       string
	Params     []Param
	ReturnType sqltypes.Type
	Decls      []Decl
	Body       []Stmt
	Source     string // original CREATE FUNCTION text (for diagnostics)
}

// Stmt is a PL/pgSQL statement.
type Stmt interface{ isStmt() }

// Assign is `name = expr;` (or `:=`).
type Assign struct {
	Name string
	Expr sqlast.Expr
}

// ElseIf is one ELSIF arm.
type ElseIf struct {
	Cond sqlast.Expr
	Body []Stmt
}

// If is IF … THEN … [ELSIF …]* [ELSE …] END IF.
type If struct {
	Cond    sqlast.Expr
	Then    []Stmt
	ElseIfs []ElseIf
	Else    []Stmt
}

// Loop is an unconditional LOOP … END LOOP, exited via EXIT.
type Loop struct {
	Label string
	Body  []Stmt
}

// While is WHILE cond LOOP … END LOOP.
type While struct {
	Label string
	Cond  sqlast.Expr
	Body  []Stmt
}

// ForRange is FOR var IN [REVERSE] from..to [BY step] LOOP … END LOOP.
type ForRange struct {
	Label   string
	Var     string
	From    sqlast.Expr
	To      sqlast.Expr
	Step    sqlast.Expr // nil means 1
	Reverse bool
	Body    []Stmt
}

// Exit is EXIT [label] [WHEN cond].
type Exit struct {
	Label string
	When  sqlast.Expr
}

// Continue is CONTINUE [label] [WHEN cond].
type Continue struct {
	Label string
	When  sqlast.Expr
}

// Return is RETURN expr.
type Return struct {
	Expr sqlast.Expr
}

// Perform is PERFORM query — evaluate and discard.
type Perform struct {
	Query *sqlast.Query
}

// Raise is RAISE [NOTICE|EXCEPTION] 'format' [, args].
// The interpreter renders % placeholders; EXCEPTION aborts execution.
// The compiler rejects functions containing RAISE EXCEPTION (side effects
// cannot be compiled away) but drops RAISE NOTICE with a warning.
type Raise struct {
	Level  string // "NOTICE" or "EXCEPTION"
	Format string
	Args   []sqlast.Expr
}

// NullStmt is the no-op statement NULL;.
type NullStmt struct{}

func (*Assign) isStmt()   {}
func (*If) isStmt()       {}
func (*Loop) isStmt()     {}
func (*While) isStmt()    {}
func (*ForRange) isStmt() {}
func (*Exit) isStmt()     {}
func (*Continue) isStmt() {}
func (*Return) isStmt()   {}
func (*Perform) isStmt()  {}
func (*Raise) isStmt()    {}
func (*NullStmt) isStmt() {}
