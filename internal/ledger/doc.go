// Package ledger tracks asset ownership during a simulated exchange: a
// set of accounts holding money and documents, an append-only transfer
// journal, and conservation auditing. The simulator refuses transfers
// the payer cannot fund, so double-spends are structurally impossible.
//
// # Key types
//
//   - Ledger is the account book; New seeds it from explicit holdings,
//     ForProblem from a Problem's endowments and goods.
//   - Transfer is one journal entry (who, what, when); the journal is
//     append-only and replayable.
//   - Ledger.Move moves a bundle with the funding check and conservation
//     bookkeeping but no journal entry; Ledger.Transfer is Move plus the
//     entry. The simulator books use Move, since a run's delivered
//     trace already records every movement; twopc reads the journal and
//     uses Transfer.
//   - Balance returns defensive copies; CanPay pre-checks funding; the
//     conservation audit asserts that total money and goods never change
//     across any journal prefix (property-tested).
//
// # Concurrency and ownership
//
// A Ledger is single-owner mutable state with no interior locking — in
// this repo the owning sim.Network goroutine is the only writer. Balance
// copies mean readers can keep returned holdings without aliasing live
// state, but reading concurrently with a writer is still a race; share a
// Ledger only after the simulation that owns it has finished.
package ledger
