//! Passive happens-before race detection and lock-order (lockdep)
//! analysis over the compat `parking_lot` shim's event stream.
//!
//! Where the model checker ([`crate::mc`], over the session of
//! [`crate::explore`]) *controls* checked-in threads and enumerates
//! interleavings, this module only *listens*: [`record`] installs a
//! passive [`ExploreHook`] that every thread in the process reports to,
//! runs the workload once at real speed, and evaluates two analyses over
//! the serialized event stream (whose order the shim guarantees is
//! consistent with the real lock order — see the shim's passive-mode
//! contract):
//!
//! * **Happens-before races** — FastTrack-style vector clocks, one per
//!   thread, joined on release→acquire, notify→wake and send→recv edges.
//!   Shared state is declared with [`touch`] at its critical sections; a
//!   pair of conflicting touches (write/write or read/write) that the
//!   clocks leave unordered is a race *candidate*: no interleaving of the
//!   recorded sync operations orders the two accesses, so some real
//!   schedule lets them collide. Each side of a reported pair carries its
//!   thread, held locks and recent sync footprint.
//!
//! * **Lockdep** — a global lock-order graph: an edge `a → b` whenever
//!   some thread acquired `b` while holding `a`. Any cycle is a
//!   potential deadlock, reported with the acquisition chains that close
//!   it. Unlike the race analysis this needs no unlucky timing at all:
//!   one clean pass through each path adds its edges.
//!
//! What passive mode can and cannot catch, versus DPOR, is discussed in
//! DESIGN.md §16. The short version: a clean [`record`] pass proves
//! nothing about schedules that were not run, but a *reported* race or
//! cycle is evidence independent of the observed timing — the vector
//! clocks certify that the recorded synchronization itself fails to
//! order the pair, whichever way the OS happened to schedule it.

use parking_lot::explore::{self, ExploreHook, SyncEvent};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex as StdMutex};
use std::thread::ThreadId;

use crate::explore::{lock_of, SESSION_LOCK};

/// How a [`touch`] accesses its object.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Access {
    /// A read of the shared state.
    Read,
    /// A write (or read-modify-write) of the shared state.
    Write,
}

/// Declare that the calling thread is accessing the logical shared
/// object named `obj`. Free (one relaxed load) when no recorder is
/// installed, so serve keeps its touchpoints compiled into production.
pub fn touch(obj: &'static str, access: Access) {
    explore::touch(obj, access == Access::Write);
}

// ---------------------------------------------------------------------------
// Vector clocks (growable: threads appear as they are first seen)
// ---------------------------------------------------------------------------

#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct VClock(Vec<u64>);

impl VClock {
    fn get(&self, t: usize) -> u64 {
        self.0.get(t).copied().unwrap_or(0)
    }

    fn tick(&mut self, t: usize) {
        if self.0.len() <= t {
            self.0.resize(t + 1, 0);
        }
        self.0[t] += 1;
    }

    fn join(&mut self, other: &VClock) {
        if self.0.len() < other.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a = (*a).max(*b);
        }
    }
}

// ---------------------------------------------------------------------------
// The recorder
// ---------------------------------------------------------------------------

/// One recorded access to a touched object: enough context to report a
/// meaningful race candidate long after the access happened.
#[derive(Clone, Debug)]
struct AccessRec {
    thread: usize,
    /// The accessing thread's clock at the touch.
    clock: VClock,
    /// Sync-object ids of the locks held at the touch.
    held: Vec<usize>,
    /// The thread's most recent sync operations, oldest first.
    recent: Vec<String>,
}

#[derive(Default)]
struct TouchState {
    last_write: Option<AccessRec>,
    /// At most one retained read per thread (the latest).
    reads: Vec<AccessRec>,
}

struct ThreadState {
    clock: VClock,
    name: String,
    /// Stack (not strictly LIFO — released by identity) of held locks.
    held: Vec<usize>,
    /// Ring of the last few sync operations, for race footprints.
    recent: VecDeque<String>,
}

const RECENT_CAP: usize = 6;

/// A lock-order edge `from → to` with the acquisition that created it.
struct Edge {
    to: usize,
    /// "thread: acquired B while holding [A, …]" for the first instance.
    chain: String,
}

#[derive(Default)]
struct RecState {
    /// Dense thread index by OS thread identity, first-appearance order.
    threads: HashMap<ThreadId, usize>,
    states: Vec<ThreadState>,
    /// Dense sync-object id by address, first-appearance order.
    obj_ids: HashMap<usize, usize>,
    labels: HashMap<usize, &'static str>,
    /// Release clock per mutex (the `L_m` of FastTrack).
    lock_clocks: HashMap<usize, VClock>,
    /// Accumulated notify clock per condvar.
    notify_clocks: HashMap<usize, VClock>,
    /// Accumulated send clock per channel.
    chan_clocks: HashMap<usize, VClock>,
    touches: HashMap<&'static str, TouchState>,
    /// Lock-order graph, adjacency by dense obj id; one edge per pair.
    edges: HashMap<usize, Vec<Edge>>,
    races: Vec<RaceCandidate>,
    events: usize,
}

impl RecState {
    fn thread_index(&mut self, id: ThreadId) -> usize {
        if let Some(&t) = self.threads.get(&id) {
            return t;
        }
        let t = self.states.len();
        self.threads.insert(id, t);
        let mut clock = VClock::default();
        // Tick the new thread's own component immediately: two threads
        // that never synchronized must compare as *unordered*, which the
        // epoch test below only gets right when each clock is ahead of
        // everyone else's knowledge of it from the start.
        clock.tick(t);
        self.states.push(ThreadState {
            clock,
            name: format!("thread {t}"),
            held: Vec::new(),
            recent: VecDeque::new(),
        });
        t
    }

    fn obj_id(&mut self, addr: usize) -> usize {
        let next = self.obj_ids.len();
        *self.obj_ids.entry(addr).or_insert(next)
    }

    fn obj_name(&self, id: usize) -> String {
        // Labels are keyed by dense id once resolved.
        match self.labels.get(&id) {
            Some(l) => (*l).to_string(),
            None => format!("#{id}"),
        }
    }

    fn note(&mut self, t: usize, what: String) {
        let recent = &mut self.states[t].recent;
        if recent.len() == RECENT_CAP {
            recent.pop_front();
        }
        recent.push_back(what);
    }

    fn add_edge(&mut self, t: usize, from: usize, to: usize) {
        if from == to {
            return;
        }
        let known = self
            .edges
            .get(&from)
            .is_some_and(|es| es.iter().any(|e| e.to == to));
        if known {
            return;
        }
        let held: Vec<String> = self.states[t]
            .held
            .iter()
            .map(|&h| self.obj_name(h))
            .collect();
        let chain = format!(
            "{}: acquired {} while holding [{}]",
            self.states[t].name,
            self.obj_name(to),
            held.join(", ")
        );
        self.edges.entry(from).or_default().push(Edge { to, chain });
    }

    fn on_acquire(&mut self, t: usize, obj: usize) {
        if let Some(l) = self.lock_clocks.get(&obj) {
            let l = l.clone();
            self.states[t].clock.join(&l);
        }
        for i in 0..self.states[t].held.len() {
            let h = self.states[t].held[i];
            self.add_edge(t, h, obj);
        }
        self.states[t].held.push(obj);
        let name = self.obj_name(obj);
        self.note(t, format!("acquire {name}"));
    }

    fn on_release(&mut self, t: usize, obj: usize, verb: &str) {
        let clock = self.states[t].clock.clone();
        self.lock_clocks.insert(obj, clock);
        self.states[t].clock.tick(t);
        if let Some(pos) = self.states[t].held.iter().rposition(|&h| h == obj) {
            self.states[t].held.remove(pos);
        }
        let name = self.obj_name(obj);
        self.note(t, format!("{verb} {name}"));
    }

    fn on_touch(&mut self, t: usize, obj: &'static str, write: bool) {
        let rec = AccessRec {
            thread: t,
            clock: self.states[t].clock.clone(),
            held: self.states[t].held.clone(),
            recent: self.states[t].recent.iter().cloned().collect(),
        };
        // The FastTrack epoch test: `prev` happens-before `cur` iff
        // cur's clock has caught up with prev's own component.
        let ordered = |prev: &AccessRec, cur: &AccessRec| {
            prev.thread == cur.thread || prev.clock.get(prev.thread) <= cur.clock.get(prev.thread)
        };
        // Collect conflicting prior accesses (tagged write/read)…
        let mut conflicts: Vec<(AccessRec, bool)> = Vec::new();
        let state = self.touches.entry(obj).or_default();
        if let Some(w) = &state.last_write {
            if !ordered(w, &rec) {
                conflicts.push((w.clone(), true));
            }
        }
        if write {
            for r in &state.reads {
                if !ordered(r, &rec) {
                    conflicts.push((r.clone(), false));
                }
            }
            state.last_write = Some(rec.clone());
            state.reads.clear();
        } else {
            state.reads.retain(|r| r.thread != t);
            state.reads.push(rec.clone());
        }
        // …then report each pair once per (object, threads, kinds).
        for (prev, prev_write) in conflicts {
            let first = side_of(self, &prev, prev_write);
            let second = side_of(self, &rec, write);
            let dup = self.races.iter().any(|r| {
                r.obj == obj
                    && r.first.thread == first.thread
                    && r.second.thread == second.thread
                    && r.first.access == first.access
                    && r.second.access == second.access
            });
            if !dup {
                self.races.push(RaceCandidate {
                    obj: obj.to_string(),
                    first,
                    second,
                });
            }
        }
    }
}

/// One side of a reported race candidate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RaceSide {
    /// Thread display name (`worker N` after a checkin, else `thread N`).
    pub thread: String,
    /// `"read"` or `"write"`.
    pub access: &'static str,
    /// Display names of the locks held at the access.
    pub held: Vec<String>,
    /// The thread's recent sync operations at the access, oldest first.
    pub recent: Vec<String>,
}

/// A pair of conflicting accesses the recorded synchronization leaves
/// unordered.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RaceCandidate {
    /// The touched object's declared name.
    pub obj: String,
    /// The earlier access (in recorded order).
    pub first: RaceSide,
    /// The later access.
    pub second: RaceSide,
}

/// A cycle in the lock-order graph: a potential deadlock.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LockCycle {
    /// Display names of the locks on the cycle, in cycle order.
    pub locks: Vec<String>,
    /// The acquisition chains (one per edge) that close the cycle.
    pub chains: Vec<String>,
}

/// The result of one [`record`] pass.
#[derive(Clone, Debug, Default)]
pub struct HbReport {
    /// Conflicting unordered access pairs, in detection order.
    pub races: Vec<RaceCandidate>,
    /// Lock-order cycles, deduplicated by node set.
    pub cycles: Vec<LockCycle>,
    /// Threads observed.
    pub threads: usize,
    /// Sync events recorded.
    pub events: usize,
}

impl HbReport {
    /// `true` when no race candidate and no lock-order cycle was found.
    pub fn is_clean(&self) -> bool {
        self.races.is_empty() && self.cycles.is_empty()
    }

    /// Serialize to plain JSON (the golden-tested report format).
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            let mut quoted = String::with_capacity(s.len() + 2);
            hetchol_core::json::escape_into(s, &mut quoted);
            quoted
        }
        fn strs(items: &[String]) -> String {
            items.iter().map(|s| esc(s)).collect::<Vec<_>>().join(", ")
        }
        fn side(s: &RaceSide) -> String {
            format!(
                "{{\"thread\": {}, \"access\": {}, \"held\": [{}], \"recent\": [{}]}}",
                esc(&s.thread),
                esc(s.access),
                strs(&s.held),
                strs(&s.recent)
            )
        }
        let mut out = String::from("{\n  \"races\": [");
        for (i, r) in self.races.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"obj\": {}, \"first\": {}, \"second\": {}}}",
                esc(&r.obj),
                side(&r.first),
                side(&r.second)
            ));
        }
        if !self.races.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"cycles\": [");
        for (i, c) in self.cycles.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"locks\": [{}], \"chains\": [{}]}}",
                strs(&c.locks),
                strs(&c.chains)
            ));
        }
        if !self.cycles.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str(&format!(
            "],\n  \"threads\": {},\n  \"events\": {}\n}}",
            self.threads, self.events
        ));
        out
    }
}

/// The passive hook: serializes every event into one state under a std
/// mutex (deliberately *not* the shim's own, which would recurse).
struct Recorder {
    state: StdMutex<RecState>,
}

impl ExploreHook for Recorder {
    fn on_event(&self, event: SyncEvent) {
        let id = std::thread::current().id();
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        st.events += 1;
        let t = st.thread_index(id);
        match event {
            SyncEvent::Checkin { worker } => {
                st.states[t].name = format!("worker {worker}");
            }
            SyncEvent::Acquire { mutex } => {
                let m = st.obj_id(mutex);
                st.on_acquire(t, m);
            }
            SyncEvent::Release { mutex } => {
                let m = st.obj_id(mutex);
                st.on_release(t, m, "release");
            }
            SyncEvent::Wait { condvar, mutex } => {
                let cv = st.obj_id(condvar);
                let m = st.obj_id(mutex);
                // A wait releases the mutex (publishing the clock) and
                // parks; the cv identity only matters at wakeup.
                let _ = cv;
                st.on_release(t, m, "wait-release");
            }
            SyncEvent::WakeAcquire { condvar, mutex } => {
                let cv = st.obj_id(condvar);
                let m = st.obj_id(mutex);
                if let Some(n) = st.notify_clocks.get(&cv) {
                    let n = n.clone();
                    st.states[t].clock.join(&n);
                }
                st.on_acquire(t, m);
            }
            SyncEvent::Notify { condvar, .. } => {
                let cv = st.obj_id(condvar);
                let clock = st.states[t].clock.clone();
                st.notify_clocks.entry(cv).or_default().join(&clock);
                st.states[t].clock.tick(t);
                let name = st.obj_name(cv);
                st.note(t, format!("notify {name}"));
            }
            SyncEvent::Send { chan } => {
                let ch = st.obj_id(chan);
                let clock = st.states[t].clock.clone();
                st.chan_clocks.entry(ch).or_default().join(&clock);
                st.states[t].clock.tick(t);
                let name = st.obj_name(ch);
                st.note(t, format!("send {name}"));
            }
            SyncEvent::Recv { chan } => {
                let ch = st.obj_id(chan);
                if let Some(s) = st.chan_clocks.get(&ch) {
                    let s = s.clone();
                    st.states[t].clock.join(&s);
                }
                let name = st.obj_name(ch);
                st.note(t, format!("recv {name}"));
            }
            SyncEvent::Touch { obj, write } => {
                st.on_touch(t, obj, write);
            }
            SyncEvent::Label { obj, label } => {
                let id = st.obj_id(obj);
                st.labels.insert(id, label);
            }
            SyncEvent::ThreadExit { .. } => {}
        }
    }
}

fn side_of(st: &RecState, rec: &AccessRec, write: bool) -> RaceSide {
    RaceSide {
        thread: st.states[rec.thread].name.clone(),
        access: if write { "write" } else { "read" },
        held: rec.held.iter().map(|&h| st.obj_name(h)).collect(),
        recent: rec.recent.clone(),
    }
}

/// Cycle detection over the accumulated lock-order graph: for every edge
/// `a → b`, search a path `b ⇝ a`; the edge plus the path is a cycle.
/// Deduplicated by (rotation-normalized) node set.
fn find_cycles(st: &RecState) -> Vec<LockCycle> {
    let mut cycles = Vec::new();
    let mut seen: Vec<Vec<usize>> = Vec::new();
    let mut froms: Vec<usize> = st.edges.keys().copied().collect();
    froms.sort_unstable();
    for &a in &froms {
        for e in &st.edges[&a] {
            let b = e.to;
            // BFS from b back to a.
            let mut prev: HashMap<usize, usize> = HashMap::new();
            let mut queue = VecDeque::from([b]);
            let mut found = false;
            while let Some(n) = queue.pop_front() {
                if n == a {
                    found = true;
                    break;
                }
                let Some(next) = st.edges.get(&n) else {
                    continue;
                };
                let mut tos: Vec<usize> = next.iter().map(|e| e.to).collect();
                tos.sort_unstable();
                for to in tos {
                    if to != b && !prev.contains_key(&to) {
                        prev.insert(to, n);
                        queue.push_back(to);
                    }
                }
            }
            if !found {
                continue;
            }
            // Reconstruct a → b ⇝ a as a node list starting at a, by
            // following the BFS predecessors from a back to b.
            let mut path = vec![a];
            let mut back = vec![a];
            let mut cur = a;
            while cur != b {
                cur = prev[&cur];
                back.push(cur);
            }
            back.reverse(); // b, …, a
            back.pop(); // drop the trailing a
            path.extend(back); // a, b, …, last-before-a
                               // Normalize: rotate so the smallest id leads.
            let min_pos = path
                .iter()
                .enumerate()
                .min_by_key(|(_, &v)| v)
                .map(|(i, _)| i)
                .unwrap_or(0);
            let mut norm = path.clone();
            norm.rotate_left(min_pos);
            if seen.contains(&norm) {
                continue;
            }
            seen.push(norm.clone());
            // Chains: for each consecutive edge on the normalized cycle,
            // the first recorded acquisition example.
            let mut chains = Vec::new();
            for i in 0..norm.len() {
                let from = norm[i];
                let to = norm[(i + 1) % norm.len()];
                if let Some(edge) = st
                    .edges
                    .get(&from)
                    .and_then(|es| es.iter().find(|e| e.to == to))
                {
                    chains.push(edge.chain.clone());
                }
            }
            cycles.push(LockCycle {
                locks: norm.iter().map(|&n| st.obj_name(n)).collect(),
                chains,
            });
        }
    }
    cycles
}

/// RAII: uninstall the passive hook even if the workload panics.
struct Uninstall;

impl Drop for Uninstall {
    fn drop(&mut self) {
        explore::uninstall();
    }
}

/// Run `f` under the passive happens-before recorder and return its
/// result together with the [`HbReport`].
///
/// Serialized against the explorer/model-checker sessions (they share
/// the process-global shim hook); the workload runs exactly once, at
/// real speed, with every thread instrumented.
pub fn record<R>(f: impl FnOnce() -> R) -> (R, HbReport) {
    let _serial = lock_of(&SESSION_LOCK);
    let recorder = Arc::new(Recorder {
        state: StdMutex::new(RecState::default()),
    });
    explore::install_passive(recorder.clone());
    let guard = Uninstall;
    let result = f();
    drop(guard);
    let st = recorder.state.lock().unwrap_or_else(|e| e.into_inner());
    let report = HbReport {
        races: st.races.clone(),
        cycles: find_cycles(&st),
        threads: st.states.len(),
        events: st.events,
    };
    (result, report)
}
