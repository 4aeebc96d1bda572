//! In-memory spans for the traced run.
//!
//! The traced run times the calls the benchmark makes into the cache
//! (root spans) and the calls the cache makes back into the
//! benchmark-owned trait implementations (child spans). Spans live in a
//! per-thread buffer, are folded into per-layer self-time totals when
//! their request closes, and the first requests of each thread are kept
//! whole for the `.spans.jsonl` artifact.
//!
//! A layer's *self time* is its span minus the interval its children
//! cover. Every span but the root is subtracted from exactly one parent,
//! so the self times of a request add up to its root span by construction.
//!
//! A thread with no tracer installed pays one thread-local check per
//! would-be span; the untraced run installs none.

use std::cell::RefCell;
use std::time::Instant;

/// The layer boundaries the benchmark can observe from outside the
/// program. Later in-program tracing must reuse these names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Layer {
    ManagerRead,
    ManagerWrite,
    ManagerWriteOp,
    ManagerFlush,
    PolicyOnHit,
    PolicyOnInsert,
    PolicyEvict,
    PolicyOnRemove,
    VerifierCheck,
    ProviderFetch,
    ProviderWrite,
    ProviderMakeVerifier,
    PropRot13,
    PropTranslate,
    PropScript,
}

impl Layer {
    pub const COUNT: usize = Layer::PropScript as usize + 1;

    /// Root spans are opened by the client loop around one call into
    /// `cache.manager`; everything else nests under one.
    pub const ROOTS: [Layer; 4] = [
        Layer::ManagerRead,
        Layer::ManagerWrite,
        Layer::ManagerWriteOp,
        Layer::ManagerFlush,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::ManagerRead => "cache.manager.read",
            Layer::ManagerWrite => "cache.manager.write",
            Layer::ManagerWriteOp => "cache.manager.write_op",
            Layer::ManagerFlush => "cache.manager.flush",
            Layer::PolicyOnHit => "cache.policy.on_hit",
            Layer::PolicyOnInsert => "cache.policy.on_insert",
            Layer::PolicyEvict => "cache.policy.evict",
            Layer::PolicyOnRemove => "cache.policy.on_remove",
            Layer::VerifierCheck => "core.verifier.check",
            Layer::ProviderFetch => "core.bitprovider.fetch",
            Layer::ProviderWrite => "core.bitprovider.write",
            Layer::ProviderMakeVerifier => "core.bitprovider.make_verifier",
            Layer::PropRot13 => "properties.rot13",
            Layer::PropTranslate => "properties.translate",
            Layer::PropScript => "proplang.script",
        }
    }
}

/// One closed span. `parent` indexes the request's span list; the root's
/// parent is [`NO_PARENT`]. Times are nanoseconds since the tracer epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub layer: Layer,
    pub parent: u32,
    pub start: u64,
    pub end: u64,
}

pub const NO_PARENT: u32 = u32::MAX;

/// Self time of every span in one request: its duration minus the
/// durations of its direct children. Children of one parent run on the
/// same thread one after another, so the interval they cover is the sum
/// of their durations.
pub fn self_times(spans: &[Span], out: &mut Vec<u64>) {
    out.clear();
    out.extend(spans.iter().map(|s| s.end - s.start));
    for span in spans {
        if span.parent != NO_PARENT {
            let parent = span.parent as usize;
            out[parent] = out[parent].saturating_sub(span.end - span.start);
        }
    }
}

/// A request kept whole for the span dump.
pub struct DumpedRequest {
    pub request: u64,
    pub tag: &'static str,
    pub spans: Vec<Span>,
}

/// Per-thread totals, merged across client threads after a rep.
#[derive(Clone, Default)]
pub struct LayerTotals {
    /// Self nanoseconds per layer, all requests.
    pub self_ns: [u64; Layer::COUNT],
    /// Spans closed per layer.
    pub calls: [u64; Layer::COUNT],
    /// Self nanoseconds per layer spent under a read root only (the
    /// per-read decomposition).
    pub read_self_ns: [u64; Layer::COUNT],
    /// Sum of root span durations, per root layer.
    pub root_ns: [u64; Layer::COUNT],
    /// Bytes each layer's streams handed on under a read root.
    pub read_bytes: [u64; Layer::COUNT],
    /// Streams pulled at least once under a read root: a stage the
    /// middleware set up but never drained did not run.
    pub read_streams_run: [u64; Layer::COUNT],
}

impl LayerTotals {
    pub fn merge(&mut self, other: &LayerTotals) {
        for i in 0..Layer::COUNT {
            self.self_ns[i] += other.self_ns[i];
            self.calls[i] += other.calls[i];
            self.read_self_ns[i] += other.read_self_ns[i];
            self.root_ns[i] += other.root_ns[i];
            self.read_bytes[i] += other.read_bytes[i];
            self.read_streams_run[i] += other.read_streams_run[i];
        }
    }

    /// Self time of `layers`, summed.
    pub fn self_of(&self, layers: &[Layer]) -> u64 {
        layers.iter().map(|&l| self.self_ns[l as usize]).sum()
    }

    /// Wall time inside all root spans.
    pub fn root_total(&self) -> u64 {
        Layer::ROOTS.iter().map(|&l| self.root_ns[l as usize]).sum()
    }
}

/// What a client thread hands back when it is done.
pub struct ThreadTrace {
    pub totals: LayerTotals,
    pub dumped: Vec<DumpedRequest>,
}

struct Tracer {
    epoch: Instant,
    thread: u64,
    requests: u64,
    /// Spans of the open request, in opening order.
    current: Vec<Span>,
    /// Indices into `current` of the spans still open.
    open: Vec<u32>,
    scratch: Vec<u64>,
    totals: LayerTotals,
    dump_limit: usize,
    dumped: Vec<DumpedRequest>,
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Starts tracing on the calling thread. `epoch` is shared by all client
/// threads so dumped spans line up; the first `dump_limit` requests are
/// kept whole.
pub fn install(epoch: Instant, thread: u64, dump_limit: usize) {
    TRACER.with(|cell| {
        *cell.borrow_mut() = Some(Tracer {
            epoch,
            thread,
            requests: 0,
            current: Vec::with_capacity(64),
            open: Vec::with_capacity(16),
            scratch: Vec::with_capacity(64),
            totals: LayerTotals::default(),
            dump_limit,
            dumped: Vec::new(),
        });
    });
}

/// Stops tracing on the calling thread and returns what it gathered.
pub fn uninstall() -> Option<ThreadTrace> {
    TRACER
        .with(|cell| cell.borrow_mut().take())
        .map(|t| ThreadTrace {
            totals: t.totals,
            dumped: t.dumped,
        })
}

/// Closes its span when dropped. Inert when the thread is not tracing or
/// no request is open.
pub struct Guard {
    active: bool,
}

/// Opens a child span under the request open on this thread.
#[inline]
pub fn enter(layer: Layer) -> Guard {
    let active = TRACER.with(|cell| {
        let mut slot = cell.borrow_mut();
        let Some(tracer) = slot.as_mut() else {
            return false;
        };
        let Some(&parent) = tracer.open.last() else {
            return false; // set-up and probe calls run outside any request
        };
        tracer.push(layer, parent);
        true
    });
    Guard { active }
}

/// Notes that a stream `layer` handed out yielded `bytes` more bytes;
/// `first_pull` marks the pull that made the stream run. Counted under a
/// read root only, beside the self time it is compared with.
pub fn produced(layer: Layer, bytes: usize, first_pull: bool) {
    TRACER.with(|cell| {
        let mut slot = cell.borrow_mut();
        let Some(tracer) = slot.as_mut() else {
            return;
        };
        if tracer.open.is_empty() || tracer.current[0].layer != Layer::ManagerRead {
            return;
        }
        tracer.totals.read_bytes[layer as usize] += bytes as u64;
        tracer.totals.read_streams_run[layer as usize] += u64::from(first_pull);
    });
}

impl Drop for Guard {
    #[inline]
    fn drop(&mut self) {
        if self.active {
            TRACER.with(|cell| {
                if let Some(tracer) = cell.borrow_mut().as_mut() {
                    tracer.pop();
                }
            });
        }
    }
}

/// Runs `call` as one client operation. When the thread is tracing, the
/// call is a root span and `tag` names how it was served (taken from the
/// result, e.g. the `HitClass`); otherwise it is timed with two clock
/// reads. Returns the result and the call's wall nanoseconds.
#[inline]
pub fn root<R>(
    layer: Layer,
    call: impl FnOnce() -> R,
    tag: impl FnOnce(&R) -> &'static str,
) -> (R, u64) {
    let tracing = TRACER.with(|cell| {
        let mut slot = cell.borrow_mut();
        match slot.as_mut() {
            Some(tracer) => {
                debug_assert!(tracer.open.is_empty(), "root spans do not nest");
                tracer.current.clear();
                tracer.push(layer, NO_PARENT);
                true
            }
            None => false,
        }
    });
    if !tracing {
        let started = Instant::now();
        let result = call();
        return (result, started.elapsed().as_nanos() as u64);
    }
    let result = call();
    let tag = tag(&result);
    let nanos = TRACER.with(|cell| {
        let mut slot = cell.borrow_mut();
        let tracer = slot.as_mut().expect("tracer outlives its open request");
        tracer.pop();
        tracer.close_request(tag)
    });
    (result, nanos)
}

impl Tracer {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&mut self, layer: Layer, parent: u32) {
        let index = self.current.len() as u32;
        let start = self.now();
        self.current.push(Span {
            layer,
            parent,
            start,
            end: start,
        });
        self.open.push(index);
    }

    fn pop(&mut self) {
        let end = self.now();
        if let Some(index) = self.open.pop() {
            self.current[index as usize].end = end;
        }
    }

    /// Folds the closed request into the totals; returns the root span's
    /// duration.
    fn close_request(&mut self, tag: &'static str) -> u64 {
        let root = self.current[0];
        let under_read = root.layer == Layer::ManagerRead;
        self_times(&self.current, &mut self.scratch);
        for (span, &own) in self.current.iter().zip(self.scratch.iter()) {
            let layer = span.layer as usize;
            self.totals.self_ns[layer] += own;
            self.totals.calls[layer] += 1;
            if under_read {
                self.totals.read_self_ns[layer] += own;
            }
        }
        let duration = root.end - root.start;
        self.totals.root_ns[root.layer as usize] += duration;
        if self.dumped.len() < self.dump_limit {
            self.dumped.push(DumpedRequest {
                request: (self.thread << 40) | self.requests,
                tag,
                spans: self.current.clone(),
            });
        }
        self.requests += 1;
        duration
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, parent: u32, start: u64, end: u64) -> Span {
        Span {
            layer,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_times_sum_to_the_root_span() {
        // read [0,100) ─ fetch [10,40) ─ make_verifier [12,15)
        //              └ rot13 [50,90) ─ translate [55,70)
        let spans = [
            span(Layer::ManagerRead, NO_PARENT, 0, 100),
            span(Layer::ProviderFetch, 0, 10, 40),
            span(Layer::ProviderMakeVerifier, 1, 12, 15),
            span(Layer::PropRot13, 0, 50, 90),
            span(Layer::PropTranslate, 3, 55, 70),
        ];
        let mut own = Vec::new();
        self_times(&spans, &mut own);
        assert_eq!(own, vec![30, 27, 3, 25, 15]);
        assert_eq!(own.iter().sum::<u64>(), 100);
    }

    #[test]
    fn a_leaf_request_is_all_self_time() {
        let spans = [span(Layer::ManagerRead, NO_PARENT, 5, 9)];
        let mut own = Vec::new();
        self_times(&spans, &mut own);
        assert_eq!(own, vec![4]);
    }

    #[test]
    fn recorded_requests_decompose_exactly() {
        install(Instant::now(), 3, 8);
        for _ in 0..5 {
            let (value, nanos) = root(
                Layer::ManagerRead,
                || {
                    let _fetch = enter(Layer::ProviderFetch);
                    produced(Layer::ProviderFetch, 100, true);
                    produced(Layer::ProviderFetch, 28, false);
                    {
                        let _inner = enter(Layer::ProviderMakeVerifier);
                        std::hint::black_box(0u64);
                    }
                    7
                },
                |_| "miss",
            );
            assert_eq!(value, 7);
            assert!(nanos > 0);
        }
        // Outside a request a child span is inert, and so are bytes.
        drop(enter(Layer::PolicyOnHit));
        produced(Layer::ProviderFetch, 1 << 20, true);
        let trace = uninstall().expect("installed above");
        assert_eq!(trace.totals.calls[Layer::ManagerRead as usize], 5);
        assert_eq!(trace.totals.calls[Layer::ProviderFetch as usize], 5);
        assert_eq!(trace.totals.calls[Layer::ProviderMakeVerifier as usize], 5);
        assert_eq!(trace.totals.calls[Layer::PolicyOnHit as usize], 0);
        assert_eq!(
            trace.totals.self_ns.iter().sum::<u64>(),
            trace.totals.root_total(),
            "layer self times must add up to the root spans"
        );
        assert_eq!(trace.totals.read_self_ns, trace.totals.self_ns);
        assert_eq!(
            trace.totals.read_bytes[Layer::ProviderFetch as usize],
            5 * 128
        );
        assert_eq!(
            trace.totals.read_streams_run[Layer::ProviderFetch as usize],
            5
        );
        assert_eq!(trace.dumped.len(), 5);
        assert_eq!(trace.dumped[4].request, (3 << 40) | 4);
        assert_eq!(trace.dumped[0].spans[1].parent, 0);
        assert_eq!(trace.dumped[0].spans[2].parent, 1);
    }

    #[test]
    fn an_untraced_thread_still_times_the_call() {
        assert!(uninstall().is_none());
        let (_, nanos) = root(
            Layer::ManagerWrite,
            || std::thread::sleep(std::time::Duration::from_millis(1)),
            |_| "write",
        );
        assert!(nanos >= 1_000_000);
    }
}
