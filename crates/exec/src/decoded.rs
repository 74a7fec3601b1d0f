//! Pre-decoded module representation: the interpreter's executable form.
//!
//! [`Decoded`] pairs a borrowed [`Module`] with an [`Arc`]-shared
//! [`DecodedUnit`] — the fully owned decode+fusion output. The unit turns
//! every name- or id-keyed reference into a dense index so the
//! interpreter's hot loop is pure array indexing:
//!
//! * call targets become function indices (the `HashMap<String, usize>`
//!   lookup and its `String` error clone happen at decode time, not per
//!   call);
//! * block targets become `u32` block indices;
//! * each instruction carries its pre-computed [`OpClass`] so the timing
//!   model never re-classifies;
//! * per-function register counts and zero-initial register images are
//!   precomputed, so call frames are a `memcpy` from a pooled allocation;
//! * the direct-threaded instruction stream ([`crate::threaded`]) and its
//!   superinstruction fusion overlay are built once alongside the
//!   match-dispatch form.
//!
//! Units are cached process-wide, keyed by an FNV-1a-64 content hash of
//! the printed module IR: two structurally identical modules — a campaign
//! and an experiment-engine sweep cell over the same protected build, or
//! repeated `Machine::with_config` constructions — share one decode.
//! [`decode_cache_stats`] exposes hit/miss counters so tests and benches
//! can assert exactly how many decodes a workload performed.
//!
//! A `Decoded` is immutable and [`Sync`]: campaign drivers build it once
//! and share it by reference across worker threads, each thread running
//! its own [`crate::Machine`] over it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use rskip_core::digest::fnv1a64;
use rskip_ir::{BinOp, CmpOp, Inst, Intrinsic, Module, Operand, Reg, Terminator, Ty, UnOp, Value};

use crate::pipeline::{class_of, OpClass};
use crate::threaded::ThreadedModule;

/// A module lowered to the interpreter's dense executable form.
///
/// Build one with [`Decoded::new`] and run it either through
/// [`crate::Machine::new`] (which decodes internally) or
/// [`crate::Machine::from_decoded`] (which shares a prebuilt decode, e.g.
/// across campaign worker threads).
#[derive(Clone)]
pub struct Decoded<'m> {
    pub(crate) module: &'m Module,
    pub(crate) unit: Arc<DecodedUnit>,
}

/// The owned decode+fusion output shared through the process-wide cache.
///
/// Public only as the [`Deref`](std::ops::Deref) target of [`Decoded`];
/// all fields are crate-private.
pub struct DecodedUnit {
    pub(crate) funcs: Box<[DFunc]>,
    /// First memory cell of each global.
    pub(crate) global_base: Box<[i64]>,
    /// Name → function index; used only for cold entry-point lookup.
    pub(crate) fn_index: HashMap<String, usize>,
    /// The direct-threaded instruction stream (fusion overlay included).
    pub(crate) threaded: ThreadedModule,
}

pub(crate) struct DFunc {
    pub(crate) blocks: Box<[DBlock]>,
    pub(crate) n_params: usize,
    /// Zero value of every register, in order — frame initialization is a
    /// single slice copy from this image.
    pub(crate) reg_init: Box<[Value]>,
}

pub(crate) struct DBlock {
    pub(crate) insts: Box<[DStep]>,
    pub(crate) term: DTerm,
}

/// One decoded instruction plus its pre-resolved timing class.
pub(crate) struct DStep {
    pub(crate) op: DInst,
    pub(crate) class: OpClass,
}

/// Decoded instruction: same shape as [`Inst`] minus dead type fields,
/// with call targets resolved to dense indices.
pub(crate) enum DInst {
    Mov {
        dst: Reg,
        src: Operand,
    },
    Bin {
        ty: Ty,
        op: BinOp,
        dst: Reg,
        lhs: Operand,
        rhs: Operand,
    },
    Un {
        ty: Ty,
        op: UnOp,
        dst: Reg,
        src: Operand,
    },
    Cmp {
        ty: Ty,
        op: CmpOp,
        dst: Reg,
        lhs: Operand,
        rhs: Operand,
    },
    Select {
        dst: Reg,
        cond: Operand,
        on_true: Operand,
        on_false: Operand,
    },
    Load {
        dst: Reg,
        addr: Operand,
    },
    Store {
        addr: Operand,
        value: Operand,
    },
    Call {
        dst: Option<Reg>,
        target: u32,
        args: Box<[Operand]>,
    },
    /// A call whose callee did not resolve at decode time. Executing it
    /// traps with [`crate::Trap::UnknownFunction`] — the name clone moved
    /// from the per-call hot path to this cold error path.
    CallUnknown {
        name: Box<str>,
    },
    IntrinsicCall {
        dst: Option<Reg>,
        intr: Intrinsic,
        args: Box<[Operand]>,
    },
}

pub(crate) enum DTerm {
    Br(u32),
    CondBr {
        cond: Operand,
        on_true: u32,
        on_false: u32,
    },
    Ret(Option<Operand>),
}

/// Hit/miss counters of the process-wide decoded-unit cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DecodeCacheStats {
    /// Lookups served from an already-built unit.
    pub hits: u64,
    /// Lookups that had to decode (and fuse) from scratch.
    pub misses: u64,
}

static DECODE_HITS: AtomicU64 = AtomicU64::new(0);
static DECODE_MISSES: AtomicU64 = AtomicU64::new(0);

/// Far above any real workload's distinct-module count; on overflow the
/// cache is cleared rather than grown without bound.
const CACHE_CAP: usize = 4096;

fn unit_cache() -> &'static Mutex<HashMap<u64, Arc<DecodedUnit>>> {
    static CACHE: OnceLock<Mutex<HashMap<u64, Arc<DecodedUnit>>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Snapshot of the decoded-unit cache counters.
///
/// The counters are process-global; tests that assert exact decode counts
/// should run in their own test binary (or measure deltas while no other
/// decodes are in flight).
#[must_use]
pub fn decode_cache_stats() -> DecodeCacheStats {
    DecodeCacheStats {
        hits: DECODE_HITS.load(Ordering::Relaxed),
        misses: DECODE_MISSES.load(Ordering::Relaxed),
    }
}

impl<'m> Decoded<'m> {
    /// Lowers `module` to its executable form, sharing the decode+fusion
    /// output through the process-wide content-hash cache.
    pub fn new(module: &'m Module) -> Self {
        let key = fnv1a64(rskip_ir::print_module(module).as_bytes());
        // Build under the lock: concurrent first decodes of the same
        // module must still perform exactly one decode, so the cache-count
        // assertions in tests and the engine stay deterministic.
        let mut cache = unit_cache().lock().unwrap_or_else(|e| e.into_inner());
        let unit = match cache.get(&key) {
            Some(unit) => {
                DECODE_HITS.fetch_add(1, Ordering::Relaxed);
                Arc::clone(unit)
            }
            None => {
                DECODE_MISSES.fetch_add(1, Ordering::Relaxed);
                if cache.len() >= CACHE_CAP {
                    cache.clear();
                }
                let unit = Arc::new(DecodedUnit::build(module));
                cache.insert(key, Arc::clone(&unit));
                unit
            }
        };
        Decoded { module, unit }
    }

    /// The module this decode was built from.
    pub fn module(&self) -> &'m Module {
        self.module
    }

    /// Function index by name (cold path: entry-point resolution).
    pub fn function_index(&self, name: &str) -> Option<usize> {
        self.unit.fn_index.get(name).copied()
    }

    /// Static superinstruction-fusion statistics of this decode.
    #[must_use]
    pub fn fusion_stats(&self) -> crate::fuse::FusionStats {
        self.unit.threaded.fusion
    }
}

impl std::ops::Deref for Decoded<'_> {
    type Target = DecodedUnit;

    fn deref(&self) -> &DecodedUnit {
        &self.unit
    }
}

impl DecodedUnit {
    fn build(module: &Module) -> Self {
        let fn_index: HashMap<String, usize> = module
            .functions
            .iter()
            .enumerate()
            .map(|(i, f)| (f.name.clone(), i))
            .collect();

        let mut global_base = Vec::with_capacity(module.globals.len());
        let mut total = 0i64;
        for g in &module.globals {
            global_base.push(total);
            total += g.len as i64;
        }

        let funcs: Box<[DFunc]> = module
            .functions
            .iter()
            .map(|f| {
                let reg_init: Box<[Value]> =
                    f.regs.iter().map(|info| Value::zero(info.ty)).collect();
                let blocks = f
                    .blocks
                    .iter()
                    .map(|b| DBlock {
                        insts: b
                            .insts
                            .iter()
                            .map(|inst| decode_inst(inst, &fn_index))
                            .collect(),
                        term: decode_term(&b.term),
                    })
                    .collect();
                DFunc {
                    blocks,
                    n_params: f.params.len(),
                    reg_init,
                }
            })
            .collect();

        let threaded = crate::threaded::build(&funcs);

        DecodedUnit {
            funcs,
            global_base: global_base.into_boxed_slice(),
            fn_index,
            threaded,
        }
    }
}

fn decode_inst(inst: &Inst, fn_index: &HashMap<String, usize>) -> DStep {
    let class = class_of(inst);
    let op = match inst {
        Inst::Mov { dst, src, .. } => DInst::Mov {
            dst: *dst,
            src: *src,
        },
        Inst::Bin {
            ty,
            op,
            dst,
            lhs,
            rhs,
        } => DInst::Bin {
            ty: *ty,
            op: *op,
            dst: *dst,
            lhs: *lhs,
            rhs: *rhs,
        },
        Inst::Un { ty, op, dst, src } => DInst::Un {
            ty: *ty,
            op: *op,
            dst: *dst,
            src: *src,
        },
        Inst::Cmp {
            ty,
            op,
            dst,
            lhs,
            rhs,
        } => DInst::Cmp {
            ty: *ty,
            op: *op,
            dst: *dst,
            lhs: *lhs,
            rhs: *rhs,
        },
        Inst::Select {
            dst,
            cond,
            on_true,
            on_false,
            ..
        } => DInst::Select {
            dst: *dst,
            cond: *cond,
            on_true: *on_true,
            on_false: *on_false,
        },
        Inst::Load { dst, addr, .. } => DInst::Load {
            dst: *dst,
            addr: *addr,
        },
        Inst::Store { addr, value, .. } => DInst::Store {
            addr: *addr,
            value: *value,
        },
        Inst::Call { dst, callee, args } => match fn_index.get(callee.as_str()) {
            Some(&target) => DInst::Call {
                dst: *dst,
                target: target as u32,
                args: args.as_slice().into(),
            },
            None => DInst::CallUnknown {
                name: callee.as_str().into(),
            },
        },
        Inst::IntrinsicCall { dst, intr, args } => DInst::IntrinsicCall {
            dst: *dst,
            intr: *intr,
            args: args.as_slice().into(),
        },
    };
    DStep { op, class }
}

fn decode_term(term: &Terminator) -> DTerm {
    match term {
        Terminator::Br(t) => DTerm::Br(t.0),
        Terminator::CondBr(cond, t, f) => DTerm::CondBr {
            cond: *cond,
            on_true: t.0,
            on_false: f.0,
        },
        Terminator::Ret(v) => DTerm::Ret(*v),
    }
}

impl DInst {
    /// Visits every operand this instruction reads (mirrors
    /// [`Inst::for_each_use`]).
    #[inline]
    pub(crate) fn for_each_use(&self, mut f: impl FnMut(Operand)) {
        match self {
            DInst::Mov { src, .. } | DInst::Un { src, .. } => f(*src),
            DInst::Bin { lhs, rhs, .. } | DInst::Cmp { lhs, rhs, .. } => {
                f(*lhs);
                f(*rhs);
            }
            DInst::Select {
                cond,
                on_true,
                on_false,
                ..
            } => {
                f(*cond);
                f(*on_true);
                f(*on_false);
            }
            DInst::Load { addr, .. } => f(*addr),
            DInst::Store { addr, value } => {
                f(*addr);
                f(*value);
            }
            DInst::Call { args, .. } | DInst::IntrinsicCall { args, .. } => {
                for a in args.iter() {
                    f(*a);
                }
            }
            DInst::CallUnknown { .. } => {}
        }
    }
}
