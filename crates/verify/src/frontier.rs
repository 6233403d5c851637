//! Layer-synchronous frontier exploration — the shared BFS engine behind
//! [`crate::reach::check`] and [`crate::bound::max_signal_value`].
//!
//! The engine explores the `(registers, env_state)` space breadth-first,
//! one depth **layer** at a time. Because global deduplication assigns
//! every state its minimal depth, each layer is a contiguous range of the
//! u32-indexed state store, and the plain FIFO checker's processing order
//! is exactly: layers in order, states within a layer in arena order,
//! moves within a state in letter order. The engine exploits that: a layer
//! is split into balanced contiguous chunks, each chunk is expanded by a
//! worker owning its own [`Reactor`], and the barrier merge replays the
//! workers' per-chunk outputs *in chunk order* — so state ids, counters
//! and the first (= shortest, lexicographically-least) violation are
//! bit-identical to the sequential exploration at any thread count.
//!
//! Determinism hinges on three invariants:
//!
//! 1. **Frozen visited-map during expansion.** Workers probe the visited
//!    map read-only (it only grows at the barrier), so which successors a
//!    worker reports depends on the layer's *starting* state set, never on
//!    worker interleaving. Candidates rediscovered within the same layer
//!    are deduplicated at the merge, first-in-canonical-order wins — the
//!    same winner the sequential checker picks.
//! 2. **Prefix semantics on terminal events.** A worker stops its chunk at
//!    the first violation or hard error, so a chunk's counters and
//!    candidate list are exactly the sequential prefix up to that event.
//!    The merge consumes chunks in order and returns at the first chunk
//!    carrying a terminal event; later chunks' work is discarded, which is
//!    precisely what the sequential checker never computed.
//! 3. **Canonical append order.** New states are appended to the store in
//!    `(parent position, letter index)` order, so ids, parent pointers,
//!    the `max_states` abort point and counterexample reconstruction all
//!    match the sequential run.
//!
//! Each state is stored once: its registers packed into one flat word
//! arena, found again through an open-addressing `u32` id table keyed by
//! the state's stored hash. Transitions run straight from the arena
//! ([`Reactor::react_from`]) and read the property off the reaction in
//! place. Every buffer a worker fills is reserved on the calling thread,
//! sized from the layer, before the fan-out: growth on a worker thread would
//! come from that thread's own allocator arena and inflate peak memory.

use polysig_sim::{par, DenseEnv, ReactionView, Reactor, SimError};
use polysig_tagged::{Value, ValueType};

use crate::alphabet::{Alphabet, EnvAutomaton};
use crate::error::VerifyError;

/// Workers only fan out when a layer has at least this many states per
/// chunk — below that, spawn latency dominates the expansion work and the
/// layer runs inline (the sequential path and the parallel path share all
/// code either way).
const MIN_STATES_PER_CHUNK: usize = 8;

/// The alphabet and environment compiled to the dense, id-addressed form
/// the per-reaction hot loop consumes.
pub(crate) struct Compiled {
    /// `letters[i]` as a dense environment addressed by the reactor's ids.
    pub dense_letters: Vec<DenseEnv>,
    /// Per env-automaton state: permitted `(letter index, successor)`
    /// moves, in letter order.
    pub moves_of: Vec<Vec<(u32, u32)>>,
}

/// One-time boundary work shared by the checkers: compile every letter to
/// a [`DenseEnv`] addressed by the reactor's ids, tabulate the environment
/// automaton's moves.
pub(crate) fn compile_boundary(
    reactor: &Reactor,
    alphabet: &Alphabet,
    env: &EnvAutomaton,
) -> Result<Compiled, VerifyError> {
    let n = reactor.signal_count();
    let mut dense_letters: Vec<DenseEnv> = Vec::with_capacity(alphabet.len());
    for letter in alphabet.letters() {
        let mut le = DenseEnv::new(n);
        for (name, value) in letter {
            let Some(id) = reactor.sig_id(name) else {
                return Err(SimError::NotAnInput { name: name.clone() }.into());
            };
            le.set(id, *value);
        }
        dense_letters.push(le);
    }
    let moves_of: Vec<Vec<(u32, u32)>> = (0..env.state_count())
        .map(|s| env.moves(s).map(|(li, to)| (li as u32, to as u32)).collect())
        .collect();
    Ok(Compiled { dense_letters, moves_of })
}

/// What a checker does with each successful reaction.
///
/// Implementations must be order-insensitive in `Acc` (merging is done in
/// chunk order, but a violation truncates later chunks), and `inspect`
/// returning `true` marks the reaction as a terminal violation.
pub(crate) trait Inspect: Sync {
    /// Per-worker accumulator, merged at every layer barrier.
    type Acc: Send + Default;
    /// Examines one reaction; `true` = property violated, stop here.
    fn inspect(&self, reaction: ReactionView<'_>, acc: &mut Self::Acc) -> bool;
    /// Folds a worker's accumulator into the global one.
    fn merge(into: &mut Self::Acc, from: Self::Acc);
}

/// Sentinel for an empty id-table slot.
const EMPTY: u32 = u32::MAX;

/// Packs one register into a word. Register types are static (a `pre`'s
/// initial value has its body's type), so the packing is injective per
/// register and [`unpack`] inverts it.
#[inline]
fn pack(v: Value) -> u64 {
    match v {
        Value::Bool(b) => u64::from(b),
        Value::Int(i) => i as u64,
    }
}

#[inline]
fn unpack(w: u64, ty: ValueType) -> Value {
    match ty {
        ValueType::Bool => Value::Bool(w != 0),
        ValueType::Int => Value::Int(w as i64),
    }
}

/// The FxHash word mix over a state's packed registers and env state.
#[inline]
fn state_hash(regs: &[u64], env: u32) -> u64 {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
    let mix = |h: u64, w: u64| (h.rotate_left(5) ^ w).wrapping_mul(SEED);
    regs.iter().fold(mix(0, u64::from(env)), |h, &w| mix(h, w))
}

/// Every discovered state, stored once: registers packed one word each in
/// a flat arena (stride = register count), the env state and hash beside
/// it, and an open-addressing table of `u32` ids for deduplication.
struct StateStore {
    stride: usize,
    /// Per register, its static type (for unpacking).
    types: Box<[ValueType]>,
    regs: Vec<u64>,
    envs: Vec<u32>,
    hashes: Vec<u64>,
    /// Linear-probing table of state ids (power-of-two length, at most
    /// half full), probed from the hash's top bits.
    table: Vec<u32>,
}

impl StateStore {
    fn new(types: Box<[ValueType]>) -> StateStore {
        StateStore {
            stride: types.len(),
            types,
            regs: Vec::new(),
            envs: Vec::new(),
            hashes: Vec::new(),
            table: vec![EMPTY; 16],
        }
    }

    /// Number of stored states.
    fn len(&self) -> usize {
        self.envs.len()
    }

    fn regs_of(&self, id: u32) -> &[u64] {
        let at = id as usize * self.stride;
        &self.regs[at..at + self.stride]
    }

    /// Unpacks state `id`'s registers into `out`.
    fn load(&self, id: u32, out: &mut Vec<Value>) {
        out.clear();
        out.extend(self.regs_of(id).iter().zip(self.types.iter()).map(|(&w, &t)| unpack(w, t)));
    }

    #[inline]
    fn slot_of(&self, hash: u64) -> usize {
        (hash >> (64 - self.table.len().trailing_zeros())) as usize
    }

    /// The id of the state `(regs, env)` with hash `hash`, if stored.
    fn find(&self, hash: u64, regs: &[u64], env: u32) -> Option<u32> {
        let mask = self.table.len() - 1;
        let mut i = self.slot_of(hash);
        loop {
            let id = self.table[i];
            if id == EMPTY {
                return None;
            }
            if self.hashes[id as usize] == hash
                && self.envs[id as usize] == env
                && self.regs_of(id) == regs
            {
                return Some(id);
            }
            i = (i + 1) & mask;
        }
    }

    /// Appends a state known to be absent; returns its id.
    fn insert(&mut self, hash: u64, regs: &[u64], env: u32) -> u32 {
        let id = self.len() as u32;
        self.regs.extend_from_slice(regs);
        self.envs.push(env);
        self.hashes.push(hash);
        if 2 * self.len() > self.table.len() {
            // grow and re-place every id from its stored hash
            self.table = vec![EMPTY; 2 * self.table.len()];
            for other in 0..id {
                self.place(other);
            }
        }
        self.place(id);
        id
    }

    fn place(&mut self, id: u32) {
        let mask = self.table.len() - 1;
        let mut i = self.slot_of(self.hashes[id as usize]);
        while self.table[i] != EMPTY {
            i = (i + 1) & mask;
        }
        self.table[i] = id;
    }

    /// Makes room for `more` states without reallocating mid-barrier.
    fn reserve(&mut self, more: usize) {
        self.regs.reserve(more * self.stride);
        self.envs.reserve(more);
        self.hashes.reserve(more);
    }
}

/// The outcome of an exploration that did not error out.
pub(crate) struct Exploration<A> {
    /// `Some((state id, letter index))` when a reaction violated; the
    /// first violation in canonical order, i.e. the sequential one.
    pub violation: Option<(u32, u32)>,
    /// Distinct states discovered.
    pub states: usize,
    /// `parents[i]` = the `(predecessor id, letter index)` that first
    /// discovered state `i` (`None` for the initial state).
    pub parents: Vec<Option<(u32, u32)>>,
    /// Reactions executed (up to and including a violating one).
    pub transitions: usize,
    /// Letters pruned because the program's clocks rejected them.
    pub pruned: usize,
    /// `true` iff a non-empty layer was cut off by the depth bound.
    pub depth_bounded: bool,
    /// The merged accumulator.
    pub acc: A,
}

/// A terminal event inside a chunk; the worker stopped right after it.
enum Terminal {
    Violation { state: u32, letter: u32 },
    Error(SimError),
}

/// A newly discovered candidate successor, pending barrier dedup. Its
/// packed registers are the matching stride of [`ChunkBuf::regs`].
struct Succ {
    parent: u32,
    letter: u32,
    env_next: u32,
    hash: u64,
}

/// One chunk's candidate successors, kept by the calling thread across
/// layers and reserved there before each fan-out, so the worker filling it
/// never grows it.
#[derive(Default)]
struct ChunkBuf {
    succs: Vec<Succ>,
    regs: Vec<u64>,
    /// The state being expanded, unpacked for the reactor.
    current: Vec<Value>,
}

impl ChunkBuf {
    /// Empties the buffer and makes room for `succs` candidates of
    /// `stride` registers each.
    fn prepare(&mut self, succs: usize, stride: usize) {
        self.succs.clear();
        self.regs.clear();
        // a cleared buffer has nothing worth copying: replace a short one
        if self.succs.capacity() < succs {
            self.succs = Vec::with_capacity(succs);
        }
        if self.regs.capacity() < succs * stride {
            self.regs = Vec::with_capacity(succs * stride);
        }
        self.current.reserve(stride);
    }
}

/// Everything one worker produced for its chunk besides the candidates.
/// When `terminal` is set, every field (and the chunk's buffer) holds
/// exactly the prefix up to the terminal event.
struct ChunkOut<A> {
    transitions: usize,
    pruned: usize,
    terminal: Option<Terminal>,
    acc: A,
}

/// Runs the layer-synchronous exploration, starting from `reactor`'s
/// current registers.
///
/// `threads == 1` never spawns (and never clones the reactor); larger
/// values fan each sufficiently large layer out across scoped workers,
/// cloning worker reactors lazily on the first layer that needs them.
/// Results are identical for every `threads` value — see the module docs
/// for the argument.
pub(crate) fn explore<I: Inspect>(
    reactor: &mut Reactor,
    compiled: &Compiled,
    inspect: &I,
    max_states: usize,
    max_depth: Option<usize>,
    threads: usize,
) -> Result<Exploration<I::Acc>, VerifyError> {
    let threads = threads.max(1);
    let mut store = StateStore::new(reactor.registers().iter().map(|v| v.ty()).collect());
    let initial: Vec<u64> = reactor.registers().iter().map(|&v| pack(v)).collect();
    store.insert(state_hash(&initial, 0), &initial, 0);
    let mut parents: Vec<Option<(u32, u32)>> = vec![None];
    let max_moves = compiled.moves_of.iter().map(Vec::len).max().unwrap_or(0);

    // worker reactors beyond the caller's own; cloned only when a layer
    // actually fans out (the sequential path never pays for a clone)
    let mut extra_workers: Vec<Reactor> = Vec::new();
    let mut bufs: Vec<ChunkBuf> = Vec::new();
    let mut transitions = 0usize;
    let mut pruned = 0usize;
    let mut acc = I::Acc::default();
    let mut depth_bounded = false;
    let mut layer = 0usize..1usize;
    let mut depth = 0usize;

    while !layer.is_empty() {
        if let Some(max) = max_depth {
            if depth >= max {
                depth_bounded = true;
                break;
            }
        }
        let wanted = threads.min(layer.len() / MIN_STATES_PER_CHUNK).max(1);
        while extra_workers.len() + 1 < wanted {
            extra_workers.push(reactor.clone());
        }
        if bufs.len() < wanted {
            bufs.resize_with(wanted, ChunkBuf::default);
        }
        // chunks are balanced, so none holds more than the ceiling share
        let per_chunk = layer.len().div_ceil(wanted) * max_moves;
        for buf in &mut bufs[..wanted] {
            buf.prepare(per_chunk, store.stride);
        }
        let layer_start = layer.start as u32;
        let mut workers: Vec<(&mut Reactor, &mut ChunkBuf)> = Vec::with_capacity(wanted);
        let (own_buf, extra_bufs) = bufs[..wanted].split_first_mut().expect("wanted >= 1");
        workers.push((&mut *reactor, own_buf));
        workers.extend(extra_workers.iter_mut().zip(extra_bufs));
        let store_ref = &store;
        let outs = par::map_chunks_mut(
            &mut workers,
            &store.envs[layer.clone()],
            MIN_STATES_PER_CHUNK,
            |(reactor, buf), start, chunk| {
                let first = layer_start + start as u32;
                expand_chunk(reactor, buf, first, chunk.len(), store_ref, compiled, inspect)
            },
        );
        drop(workers);

        // barrier: replay per-chunk outputs in chunk (= canonical) order
        let next_start = store.len();
        store.reserve(bufs[..outs.len()].iter().map(|b| b.succs.len()).sum());
        for (out, buf) in outs.into_iter().zip(&bufs) {
            transitions += out.transitions;
            pruned += out.pruned;
            I::merge(&mut acc, out.acc);
            for (k, succ) in buf.succs.iter().enumerate() {
                let regs = &buf.regs[k * store.stride..(k + 1) * store.stride];
                if store.find(succ.hash, regs, succ.env_next).is_some() {
                    continue; // rediscovered within this layer; first wins
                }
                if store.len() >= max_states {
                    return Err(VerifyError::StateCapExceeded { cap: max_states });
                }
                store.insert(succ.hash, regs, succ.env_next);
                parents.push(Some((succ.parent, succ.letter)));
            }
            if let Some(terminal) = out.terminal {
                return match terminal {
                    Terminal::Violation { state, letter } => Ok(Exploration {
                        violation: Some((state, letter)),
                        states: store.len(),
                        parents,
                        transitions,
                        pruned,
                        depth_bounded,
                        acc,
                    }),
                    Terminal::Error(e) => Err(e.into()),
                };
            }
        }
        layer = next_start..store.len();
        depth += 1;
    }

    Ok(Exploration {
        violation: None,
        states: store.len(),
        parents,
        transitions,
        pruned,
        depth_bounded,
        acc,
    })
}

/// Expands the `count` states from id `first` on one worker-owned reactor,
/// appending unseen successors to `buf`. Stops at the chunk's first
/// terminal event, leaving prefix-exact counters and candidates (see
/// module docs).
fn expand_chunk<I: Inspect>(
    reactor: &mut Reactor,
    buf: &mut ChunkBuf,
    first: u32,
    count: usize,
    store: &StateStore,
    compiled: &Compiled,
    inspect: &I,
) -> ChunkOut<I::Acc> {
    let mut out = ChunkOut { transitions: 0, pruned: 0, terminal: None, acc: I::Acc::default() };
    let mut cur_regs = std::mem::take(&mut buf.current);

    'states: for id in first..first + count as u32 {
        store.load(id, &mut cur_regs);
        let env_state = store.envs[id as usize];
        for &(letter_index, env_next) in &compiled.moves_of[env_state as usize] {
            let dense_letter = &compiled.dense_letters[letter_index as usize];
            match reactor.react_from(&cur_regs, dense_letter) {
                Ok((reaction, next)) => {
                    out.transitions += 1;
                    if inspect.inspect(reaction, &mut out.acc) {
                        out.terminal =
                            Some(Terminal::Violation { state: id, letter: letter_index });
                        break 'states;
                    }
                    let at = buf.regs.len();
                    buf.regs.extend(next.iter().map(|&v| pack(v)));
                    let packed = &buf.regs[at..];
                    let hash = state_hash(packed, env_next);
                    if store.find(hash, packed, env_next).is_some() {
                        buf.regs.truncate(at);
                    } else {
                        buf.succs.push(Succ { parent: id, letter: letter_index, env_next, hash });
                    }
                }
                // clock-constraint violations are environment moves the
                // program forbids — prune them
                Err(SimError::ClockMismatch { .. })
                | Err(SimError::Contradiction { .. })
                | Err(SimError::UndeterminedClock { .. }) => {
                    out.pruned += 1;
                }
                Err(other) => {
                    out.terminal = Some(Terminal::Error(other));
                    break 'states;
                }
            }
        }
    }
    buf.current = cur_regs;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_dedups_across_table_growth() {
        let mut store = StateStore::new(vec![ValueType::Int, ValueType::Bool].into());
        let key = |i: u64| ([i.wrapping_mul(7), i & 1], (i % 3) as u32);
        for i in 0..1000u64 {
            let (regs, env) = key(i);
            let hash = state_hash(&regs, env);
            assert_eq!(store.find(hash, &regs, env), None);
            assert_eq!(store.insert(hash, &regs, env), i as u32);
        }
        assert!(2 * store.len() <= store.table.len(), "at most half full");
        for i in 0..1000u64 {
            let (regs, env) = key(i);
            assert_eq!(store.find(state_hash(&regs, env), &regs, env), Some(i as u32));
            let mut unpacked = Vec::new();
            store.load(i as u32, &mut unpacked);
            assert_eq!(unpacked, vec![Value::Int((i * 7) as i64), Value::Bool(i & 1 == 1)]);
        }
        // same registers, another env state: a distinct state
        let (regs, _) = key(5);
        assert_eq!(store.find(state_hash(&regs, 99), &regs, 99), None);
    }

    #[test]
    fn register_free_states_differ_by_env_alone() {
        let mut store = StateStore::new(Box::new([]));
        for env in 0..40u32 {
            assert_eq!(store.insert(state_hash(&[], env), &[], env), env);
        }
        assert_eq!(store.find(state_hash(&[], 17), &[], 17), Some(17));
        assert_eq!(store.find(state_hash(&[], 40), &[], 40), None);
    }
}
