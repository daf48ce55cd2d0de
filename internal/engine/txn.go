package engine

import (
	"errors"
	"fmt"
	"time"

	"plsqlaway/internal/catalog"
	"plsqlaway/internal/sqlast"
	"plsqlaway/internal/storage"
	"plsqlaway/internal/wal"
)

// ErrSerialization is returned when a commit's validate step finds that
// a concurrent commit already superseded a row this transaction deletes
// or updates (first-updater-wins), or that a schema change raced the
// tip. For explicit transaction blocks it surfaces from COMMIT — the
// block is ended (rolled back), and callers retry the whole transaction;
// autocommit statements, and scripts that are one implicit block, retry
// internally on a fresh snapshot and never surface it.
var ErrSerialization = errors.New("engine: could not serialize access due to a concurrent commit (rollback and retry the transaction)")

// ErrTxnAborted mirrors Postgres's 25P02: after any statement fails
// inside a transaction block, everything but COMMIT/ROLLBACK is refused
// until the block ends. Match it with errors.Is — the client package
// re-wraps it across the wire.
var ErrTxnAborted = errors.New("engine: current transaction is aborted, commands ignored until end of transaction block")

// txnState is one session's open transaction block. The protocol
// generalizes the single-statement commitWrap: one snapshot pinned at
// BEGIN serves every statement's reads, writes buffer per heap in
// HeapOverlay sets (reads overlay them, so the transaction sees its own
// uncommitted writes), DDL mutates a private catalog clone, and COMMIT
// publishes everything through the ordinary commit protocol — per-heap
// Commit calls stamped with one write timestamp, then one atomic state
// store. ROLLBACK just discards the buffers: the heaps were never
// touched.
//
// Writer serialization is optimistic, first-updater-wins: the block
// takes no lock at all while it runs — writes buffer in the overlays —
// and COMMIT enters a short validate-and-publish critical section under
// the commit lock. Validation fails with ErrSerialization only when a
// concurrent commit already superseded a row this block deletes or
// updates (or raced its DDL); blocks touching disjoint rows commit
// concurrently, and read-only blocks never touch the lock.
type txnState struct {
	active  bool
	aborted bool     // a statement failed; only COMMIT/ROLLBACK accepted
	st      *dbState // snapshot pinned at BEGIN, unpinned at txn end
	cat     *catalog.Catalog
	ddl     bool // cat is a private clone carrying this txn's DDL
	// catFrozen forces the next DDL to re-clone cat even though ddl is
	// already set: a savepoint mark holds the current clone as its
	// restore point, so later DDL must not mutate it in place.
	catFrozen bool
	gated     bool // vacuumGate held shared (opened at first writer statement)
	writes    map[*storage.Heap]*storage.HeapOverlay
	order     []*catalog.Table // tables in first-write order, for deterministic commit
	ddlLog    []wal.DDLEntry   // catalog deltas for the WAL commit record
	saves     []savepointMark  // SAVEPOINT stack, innermost last
	// implicit marks a block opened by a multi-statement script rather
	// than by BEGIN (see RunStream): it ends with the script.
	implicit bool
}

// InTxn reports whether the session is inside an explicit transaction
// block (including the aborted-until-ROLLBACK state).
func (s *Session) InTxn() bool { return s.txn.active }

// notice records a client-visible NOTICE message (the same channel RAISE
// NOTICE uses, so it travels the wire and prints in shells).
func (s *Session) notice(format string, args ...any) {
	s.counters.Notices = append(s.counters.Notices, fmt.Sprintf(format, args...))
}

// DrainNotices returns and clears the session's pending NOTICE messages
// (RAISE NOTICE output plus transaction-control warnings). The wire
// server drains them into each response.
func (s *Session) DrainNotices() []string {
	n := s.counters.Notices
	s.counters.Notices = nil
	return n
}

// Begin opens a transaction block: it pins the published snapshot that
// will serve every statement in the block. Inside an open block it is a
// warning no-op, as in Postgres — except that a script's implicit block
// becomes an explicit one, statements already run included.
func (s *Session) Begin() error {
	if s.pinDepth > 0 {
		return fmt.Errorf("engine: BEGIN inside a query is not supported")
	}
	if s.txn.active {
		if !s.txn.implicit {
			s.notice("there is already a transaction in progress")
		}
		s.txn.implicit = false
		return nil
	}
	st := s.sh.pinState()
	s.txn = txnState{active: true, st: st, cat: st.cat}
	s.interp.Cat = st.cat
	return nil
}

// Commit publishes the open transaction: every buffered heap write is
// committed with the transaction's single write timestamp, the catalog
// clone (if DDL ran) is installed, and one atomic state store makes it
// all visible — concurrent readers see the whole transaction or none of
// it. Outside a block it is a warning no-op (a script's implicit block
// gets the warning and still commits); on an aborted block it rolls back
// instead (Postgres semantics).
func (s *Session) Commit() error {
	if !s.txn.active || s.txn.implicit {
		s.notice("there is no transaction in progress")
	}
	return s.commitBlock()
}

// commitBlock is Commit without the no-block warning — also how a
// script's implicit block ends.
func (s *Session) commitBlock() error {
	if !s.txn.active {
		return nil
	}
	if s.txn.aborted {
		s.notice("transaction is aborted — COMMIT performed ROLLBACK")
		s.endTxn()
		return nil
	}
	tCommit := time.Now()
	lsn, err := s.commitTxn()
	s.endTxn()
	if err != nil {
		return err
	}
	// Wait for durability after releasing the commit lock, so concurrent
	// committers coalesce their fsyncs (group commit).
	if lsn > 0 {
		if err := s.sh.wal.WaitDurable(lsn); err != nil {
			return err
		}
	}
	s.sh.noteCommitPhase(time.Since(tCommit))
	if lsn > 0 {
		s.sh.maybeAutoCheckpoint()
	}
	return nil
}

// commitTxn publishes the open transaction's buffered writes and DDL:
// it flattens the overlays outside any lock, then enters the commit
// critical section — first-updater-wins validation against the tip, one
// flattened WAL commit record (a failed append aborts before any heap
// is touched), the heap commits, the atomic publish. A validation
// failure returns ErrSerialization with nothing applied; the caller
// (Commit) ends the block either way, so the loser's retry starts from
// a clean BEGIN. Returns the record's LSN (0 when nothing needed
// logging).
func (s *Session) commitTxn() (int64, error) {
	var writes []pendingWrite
	for _, tbl := range s.txn.order {
		if cur, ok := s.txn.cat.Table(tbl.Name); !ok || cur.Heap != tbl.Heap {
			continue // table dropped inside the block: its writes die with it
		}
		dead, added := s.txn.writes[tbl.Heap].Flatten()
		if len(dead) == 0 && len(added) == 0 {
			continue // net no-op on this heap (e.g. insert then delete)
		}
		writes = append(writes, pendingWrite{tbl: tbl, dead: dead, added: added})
	}
	if !s.txn.ddl && len(writes) == 0 {
		return 0, nil // no-op or read-only transaction: no lock, no timestamp
	}
	s.sh.commitMu.Lock()
	defer s.sh.commitMu.Unlock()
	tip := s.sh.state.Load()
	var pendingCat *catalog.Catalog
	if s.txn.ddl {
		pendingCat = s.txn.cat
	}
	cat, err := s.validateCommit(tip, s.txn.st.ts, pendingCat, writes)
	if err != nil {
		return 0, err
	}
	writeTS := tip.ts + 1
	var lsn int64
	if s.sh.wal != nil {
		lsn, err = s.sh.wal.Append(commitRecord(writeTS, s.txn.ddlLog, writes))
		if err != nil {
			return 0, err // clean abort: no heap was touched
		}
	}
	for _, pw := range writes {
		pw.tbl.Heap.Commit(pw.dead, pw.added, writeTS)
	}
	s.sh.state.Store(&dbState{cat: cat, ts: writeTS})
	if s.txn.ddl {
		// Same eviction as commitAttempt: redefined function bodies embedded
		// in specialized/inlined plans must not linger in the cache.
		s.sh.cache.InvalidateStale(cat.Version)
	}
	// Close the block's writer window before attempting vacuum: its
	// TryLock needs the gate free of every reader, ourselves included.
	if s.txn.gated {
		s.txn.gated = false
		s.sh.vacuumGate.RUnlock()
	}
	for _, pw := range writes {
		s.maybeVacuum(pw.tbl, writeTS)
	}
	return lsn, nil
}

// Rollback discards the open transaction: buffered writes and the
// catalog clone are dropped, the snapshot pin and commit lock released.
// The heaps were never written, so storage is byte-identical to the
// pre-BEGIN state. Outside a block it is a warning no-op (a script's
// implicit block gets the warning and still rolls back).
func (s *Session) Rollback() error {
	if !s.txn.active || s.txn.implicit {
		s.notice("there is no transaction in progress")
	}
	if s.txn.active {
		s.endTxn()
	}
	return nil
}

// Reset aborts any open transaction without the outside-a-block warning —
// the cleanup hook connection owners (the wire server) call when a client
// goes away, so an abandoned session never keeps holding the commit lock
// or its snapshot pin.
func (s *Session) Reset() {
	if s.txn.active {
		s.endTxn()
	}
}

// endTxn releases everything the transaction holds (writer window,
// snapshot pin) and re-points the interpreter at the published catalog.
func (s *Session) endTxn() {
	if s.txn.gated {
		s.sh.vacuumGate.RUnlock()
	}
	s.sh.pins.unpin(s.txn.st.ts)
	s.txn = txnState{}
	s.interp.Cat = s.sh.state.Load().cat
}

// txnGate refuses work on an aborted transaction block.
func (s *Session) txnGate() error {
	if s.txn.active && s.txn.aborted {
		return ErrTxnAborted
	}
	return nil
}

// noteStmtErr poisons the open transaction block after a failed
// statement — every statement entry point (Run, Prepared, QueryPlanned,
// QueryFresh) reports through here so the aborted-until-ROLLBACK
// invariant holds on all of them.
func (s *Session) noteStmtErr(err error) {
	if err != nil && s.txn.active {
		s.txn.aborted = true
	}
}

// ensureTxnWrite opens the transaction's writer window at its first
// write: the vacuum gate is held shared so the version indices the block
// buffers stay stable until COMMIT validates them. No lock is taken and
// no tip check happens here — conflicts with concurrent commits are
// detected per row at COMMIT (first-updater-wins), so a block whose
// snapshot is behind the tip still commits as long as no one re-stamped
// the rows it writes.
func (s *Session) ensureTxnWrite() {
	if !s.txn.gated {
		s.sh.vacuumGate.RLock()
		s.txn.gated = true
	}
}

// txnWrites returns (creating on first use) the transaction's buffered
// write set for tbl's heap, registering the table in commit order.
func (s *Session) txnWrites(tbl *catalog.Table) *storage.HeapOverlay {
	w, ok := s.txn.writes[tbl.Heap]
	if !ok {
		if s.txn.writes == nil {
			s.txn.writes = make(map[*storage.Heap]*storage.HeapOverlay)
		}
		w = &storage.HeapOverlay{Dead: make(map[int]bool)}
		s.txn.writes[tbl.Heap] = w
		s.txn.order = append(s.txn.order, tbl)
	}
	return w
}

// execTxnControl runs a BEGIN/COMMIT/ROLLBACK statement.
func (s *Session) execTxnControl(stmt *sqlast.Transaction) error {
	switch stmt.Kind {
	case sqlast.TxnBegin:
		return s.Begin()
	case sqlast.TxnCommit:
		return s.Commit()
	case sqlast.TxnRollback:
		return s.Rollback()
	}
	return fmt.Errorf("engine: unknown transaction statement %v", stmt.Kind)
}

// txnWrite runs fn as one writer statement inside the open transaction
// block: the writer window is opened (first write gates vacuum for the
// block's remainder), reads happen at the BEGIN snapshot with buffered
// writes overlaid, DML helpers buffer instead of committing, and any
// error poisons the block until ROLLBACK.
func (s *Session) txnWrite(fn func() error) error {
	s.ensureTxnWrite()
	end := s.beginRead() // txn-aware: shares the BEGIN pin and catalog
	err := fn()
	end()
	if err != nil {
		s.txn.aborted = true
	}
	return err
}

// maybeVacuum opportunistically vacuums a heap this commit touched,
// identically for single-statement commits and transaction commits.
// Vacuum renumbers version indices, and later commit records reference
// rows by version index — so every vacuum that reclaims anything is
// logged with its exact horizon, and replay applies those records
// verbatim instead of re-running the heuristic, keeping the replayed
// heap's numbering identical to the original's.
func (s *Session) maybeVacuum(tbl *catalog.Table, writeTS int64) {
	h := tbl.Heap
	if dead := h.DeadCount(); dead >= vacuumMinDead && dead*4 >= h.Len() {
		// Vacuum renumbers version indices, and optimistic writer
		// statements hold buffered indices outside the commit lock — so
		// it only runs when no writer window is open (exclusive TryLock
		// on the gate; the caller already closed its own window). A
		// skipped vacuum is retried by whichever later commit finds the
		// gate free.
		if !s.sh.vacuumGate.TryLock() {
			return
		}
		defer s.sh.vacuumGate.Unlock()
		// The horizon includes our own still-held pin, so versions this
		// very commit superseded are reclaimed by a later one — a lag
		// of one commit, in exchange for never racing our own reads.
		horizon := s.sh.pins.oldest(writeTS)
		if h.Vacuum(horizon) > 0 && s.sh.wal != nil {
			// Vacuum is an in-memory reorganization, not new data — it
			// never needs to be durable before the commit that follows
			// it, so no WaitDurable here. A lost tail vacuum record can
			// only be lost alongside every later commit record.
			s.sh.wal.Append(wal.VacuumRecord(tbl.Name, horizon))
		}
	}
}
