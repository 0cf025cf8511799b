//! Concurrency-discipline fixtures: lock-order cycles, pairing work
//! under guards, and guard-extension hazards, each with a clean (or
//! justified) twin. Never compiled — parsed by `tests/clean_tree.rs`
//! and fed to `mccls_xtask::concurrency::analyze`.
//!
//! Every case uses its own lock field names so the inferred lock
//! classes stay disjoint: a cycle seeded by one dirty case must not
//! bleed into another case's acquisition order.

/// The shared registry whose locks the cases below take.
pub struct FixtureRegistry {
    shards: Vec<RwLock<Bank>>,
    journal: Mutex<Journal>,
    banks: Mutex<Bank>,
    pairs: RwLock<PairTable>,
    epoch_a: Mutex<Epoch>,
    epoch_b: Mutex<Epoch>,
    gate_a: Mutex<Epoch>,
    gate_b: Mutex<Epoch>,
}

pub struct Bank {
    entries: Vec<u64>,
}

pub struct Journal {
    records: Vec<u64>,
}

pub struct PairTable {
    cached: Vec<Gt>,
}

pub struct Epoch {
    counter: u64,
}

impl FixtureRegistry {
    /// DIRTY: holds one shard's write guard while acquiring a second
    /// shard of the same lock array — the self-nesting that deadlocks
    /// the moment two threads rebalance opposite pairs.
    pub fn rebalance(&self, from: usize, to: usize) {
        let mut src = self.shards[from].write();
        let mut dst = self.shards[to].write();
        src.drain_into(&mut dst);
    }

    /// DIRTY (with `flush_banks`/`rotate`/`append_journal`): takes
    /// `journal` then `banks`…
    pub fn checkpoint(&self) {
        let j = self.journal.lock();
        self.flush_banks();
        j.seal();
    }

    fn flush_banks(&self) {
        let b = self.banks.lock();
        b.touch();
    }

    /// …while this path takes `banks` then `journal`: an
    /// interprocedural opposite-order cycle.
    pub fn rotate(&self) {
        let b = self.banks.lock();
        self.append_journal();
        b.touch();
    }

    fn append_journal(&self) {
        let j = self.journal.lock();
        j.seal();
    }

    /// DIRTY: the Miller loop and final exponentiation behind
    /// `ops::pair` run while the `pairs` write guard is held, starving
    /// every reader for a multi-millisecond critical section.
    pub fn admit_slow(&self, q: &G1Affine, p: &G2Affine) {
        let mut table = self.pairs.write();
        table.put(ops::pair(q, p));
    }

    /// CLEAN twin: pay the pairing first, then take the guard only to
    /// store the 16-limb result.
    pub fn admit_fast(&self, q: &G1Affine, p: &G2Affine) {
        let gt = ops::pair(q, p);
        let mut table = self.pairs.write();
        table.put(gt);
    }

    /// DIRTY: returns the guard, extending the critical section into
    /// every caller the analysis cannot see.
    pub fn locked_bank(&self) -> MutexGuard<'_, Bank> {
        self.banks.lock()
    }

    /// CLEAN (suppressed) twin of an order edge: `epoch_b` nests under
    /// `epoch_a` here, and the reverse order below would close a cycle
    /// — but the edge carries a reviewed justification.
    pub fn forward(&self) {
        let a = self.epoch_a.lock();
        // lock-ok: epoch_b is only ever taken inside epoch_a on the forward path; backward drops epoch_b before retake (reviewed)
        let b = self.epoch_b.lock();
        a.tick(&b);
    }

    pub fn backward(&self) {
        let b = self.epoch_b.lock();
        let a = self.epoch_a.lock();
        a.tick(&b);
    }

    /// DIRTY marker: a bare `// lock-ok:` gives no reason, so the edge
    /// still counts *and* the empty waiver is itself reported.
    pub fn gate_up(&self) {
        let a = self.gate_a.lock();
        // lock-ok:
        let b = self.gate_b.lock();
        a.tick(&b);
    }

    pub fn gate_down(&self) {
        let b = self.gate_b.lock();
        let a = self.gate_a.lock();
        a.tick(&b);
    }
}

/// DIRTY: storing a guard in a struct outlives any lexical critical
/// section.
pub struct BankHandle<'a> {
    guard: MutexGuard<'a, Bank>,
}
