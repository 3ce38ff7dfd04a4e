// Package serve implements faure-serve, the resident verification
// service: it loads a network state and a fauré-log policy program
// once, evaluates to a warm c-table database, and then serves
// concurrent verification and query requests against an MVCC-style
// snapshot store while a single writer goroutine drains a stream of
// network updates through the category-(ii) rewrite chain and
// re-derives the program after each one, over only the partitions the
// update touches when it can.
//
// The robustness contract, in one paragraph: reads never observe a
// half-applied update (generations are immutable and published with an
// atomic pointer swap); a poisoned update, a panic, or a budget trip
// degrades that one request and leaves the server serving the last
// good generation (rollback, not crash); every applied update is
// journaled to an append-only write-ahead log before it becomes
// visible, so a crash-restart replays the WAL through the identical
// apply path and converges to the bit-identical pre-crash database;
// and admission control (a bounded in-flight semaphore plus
// per-request budgets) sheds load with 429s instead of collapsing.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"time"

	"faure/internal/ctable"
	"faure/internal/faurelog"
)

// Generation is one immutable snapshot of the service's state: the
// base (EDB) network state after Seq applied updates, plus the warm
// evaluated database (base relations and every derived relation of the
// service's program). Readers obtain the current generation with
// Server.Current and keep using it for the whole request — a
// concurrent update publishes a new generation but never mutates an
// old one, so a request's view is consistent end to end.
type Generation struct {
	// Seq counts the updates applied since the initial load: the
	// initial evaluation is generation 0, the first applied update
	// produces generation 1, and so on. Seq equals the WAL record
	// sequence of the update that produced this generation.
	Seq uint64
	// Base is the EDB state: the loaded network state with every
	// applied update materialised (inserts appended, deletes encoded as
	// pointwise-disequality conditions per the paper's c-table removal).
	Base *ctable.Database
	// DB is the warm evaluated database: Base plus every relation the
	// service's program derives. Verification and query requests run
	// against DB.
	DB *ctable.Database
	// Update is the textual form of the update that produced this
	// generation ("" for generation 0).
	Update string
	// Created is when the generation was published.
	Created time.Time
	// Checksum is the SHA-256 of the canonical dump, computed at
	// publish when Config.Checksum is set ("" otherwise). Readers can
	// recompute it from DB to assert the snapshot they hold is
	// internally consistent (no torn or mutated state).
	Checksum string
}

// CanonicalDump renders the generation's evaluated database in the
// round-trippable textual format. Two runs that applied the same
// update sequence through the same code path produce bit-identical
// dumps — the crash-recovery acceptance check.
func (g *Generation) CanonicalDump() string {
	return faurelog.FormatDatabase(g.DB)
}

// checksum hashes the canonical dump.
func (g *Generation) checksum() string {
	sum := sha256.Sum256([]byte(g.CanonicalDump()))
	return hex.EncodeToString(sum[:])
}
