//! The kernel IR: value handles, storage classes, and the three-stage
//! op lists ([`KernelIr::compile`] lowers them to a split program).
//!
//! A kernel is organized exactly like the split-program contract it
//! compiles to:
//!
//! * **setup** — vACore declarations (weight staging + programming) and
//!   constant/address-table initializers, all request-invariant and
//!   halt-free by construction;
//! * **inputs** — persistent registers a request's input stub writes;
//! * **body** — the compute ops; lowering appends the terminating
//!   `halt`.
//!
//! Values are SSA-ish handles: *temps* are defined by exactly one body
//! op and recycled after their last use, *slots* are persistent named
//! registers placed by the allocator, and *fixed slots* are persistent
//! registers pinned to an architectural number (self-addressing lookup
//! tables need their global `register × elements + element` addresses to
//! be data, not allocator output).

use darth_isa::instruction::IsaBoolOp;
use darth_pum::hct::HctConfig;

use crate::lower::CompiledKernel;

/// An IR value handle: an opaque reference to one vector register's
/// worth of data (MVM results additionally own their landing cluster).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Value(pub(crate) u32);

/// A virtual analog core declared in the IR (weights + operand widths).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VaCore(pub(crate) u8);

/// Storage class of a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Storage {
    /// SSA temporary: defined by exactly one body op, freed after its
    /// last use.
    Temp,
    /// Persistent named register, placed by the allocator.
    Slot,
    /// Persistent register pinned to an architectural number.
    Fixed(u8),
    /// Persistent register written by the per-request input stage.
    Input,
}

impl Storage {
    pub(crate) fn is_persistent(self) -> bool {
        !matches!(self, Storage::Temp)
    }
}

/// Everything the compiler tracks per value.
#[derive(Debug, Clone)]
pub(crate) struct ValueInfo {
    pub name: String,
    pub pipe: u16,
    pub storage: Storage,
    /// Registers the value occupies: 1, except MVM results which own
    /// their whole landing cluster (`terms + 2` registers: accumulator,
    /// partial products, IIU scratch).
    pub width: usize,
}

/// A vACore declaration: the weight matrix plus operand geometry.
#[derive(Debug, Clone)]
pub(crate) struct VaCoreSpec {
    pub matrix: Vec<Vec<i64>>,
    pub element_bits: u8,
    pub bits_per_cell: u8,
    pub input_bits: u8,
    pub input_signed: bool,
}

impl VaCoreSpec {
    /// MVM terms per reduction: weight slices × input bits. The landing
    /// cluster is `terms + 2` registers.
    pub fn terms(&self) -> usize {
        let slices =
            usize::from(self.element_bits).div_ceil(usize::from(self.bits_per_cell.max(1)));
        slices * usize::from(self.input_bits)
    }

    /// Input vector length (matrix rows = wordlines).
    pub fn rows(&self) -> usize {
        self.matrix.len()
    }
}

/// One element of an address table: element `element` of the table
/// register holds the global address of `slot[slot_element]`
/// (`register × elements + slot_element`, resolved after allocation).
#[derive(Debug, Clone)]
pub(crate) struct AddrEntry {
    pub element: u8,
    pub slot: Value,
    pub slot_element: u64,
}

/// One request-invariant initializer in the setup section.
#[derive(Debug, Clone)]
pub(crate) enum SetupItem {
    /// Unsigned immediate cells `(element, value)`.
    ConstU { dst: Value, cells: Vec<(u8, u64)> },
    /// Signed immediate cells, staged as two's-complement fields.
    ConstS { dst: Value, cells: Vec<(u8, i64)> },
    /// Gather-address cells resolved against allocated slot registers.
    AddrTable { dst: Value, entries: Vec<AddrEntry> },
}

impl SetupItem {
    pub(crate) fn dst(&self) -> Value {
        match self {
            SetupItem::ConstU { dst, .. }
            | SetupItem::ConstS { dst, .. }
            | SetupItem::AddrTable { dst, .. } => *dst,
        }
    }
}

/// A per-request input register: the request writes `elements` values
/// into it; `default` is the payload the monolithic job form carries.
#[derive(Debug, Clone)]
pub(crate) struct InputDecl {
    pub value: Value,
    pub elements: usize,
    pub signed: bool,
    pub default: Vec<i64>,
}

/// One compute op. Each lowers to exactly one ISA instruction.
#[derive(Debug, Clone)]
pub(crate) enum BodyOp {
    /// Element-wise DCE boolean gate.
    Bool {
        op: IsaBoolOp,
        dst: Value,
        a: Value,
        b: Value,
    },
    /// Element-wise add.
    Add { dst: Value, a: Value, b: Value },
    /// Element-wise subtract.
    Sub { dst: Value, a: Value, b: Value },
    /// Element-wise shift by an immediate.
    Shift {
        left: bool,
        dst: Value,
        src: Value,
        amount: u8,
    },
    /// Register copy, within or across pipelines.
    Mov { dst: Value, src: Value },
    /// `eload` gather: `dst[e] =` table pipeline's register file at
    /// global address `addr[e]`.
    Gather {
        dst: Value,
        addr: Value,
        table_pipe: u16,
    },
    /// Analog MVM: reduce `input` through the vACore into `dst`'s
    /// landing cluster.
    Mvm {
        vacore: VaCore,
        input: Value,
        dst: Value,
        early_levels: u16,
    },
}

impl BodyOp {
    /// Values the op reads, in operand order.
    pub(crate) fn operands(&self) -> Vec<Value> {
        match self {
            BodyOp::Bool { a, b, .. } | BodyOp::Add { a, b, .. } | BodyOp::Sub { a, b, .. } => {
                vec![*a, *b]
            }
            BodyOp::Shift { src, .. } | BodyOp::Mov { src, .. } => vec![*src],
            BodyOp::Gather { addr, .. } => vec![*addr],
            BodyOp::Mvm { input, .. } => vec![*input],
        }
    }

    /// The value the op writes.
    pub(crate) fn dst(&self) -> Value {
        match self {
            BodyOp::Bool { dst, .. }
            | BodyOp::Add { dst, .. }
            | BodyOp::Sub { dst, .. }
            | BodyOp::Shift { dst, .. }
            | BodyOp::Mov { dst, .. }
            | BodyOp::Gather { dst, .. }
            | BodyOp::Mvm { dst, .. } => *dst,
        }
    }

    /// Short op name for diagnostics.
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            BodyOp::Bool { .. } => "bool",
            BodyOp::Add { .. } => "add",
            BodyOp::Sub { .. } => "sub",
            BodyOp::Shift { .. } => "shift",
            BodyOp::Mov { .. } => "mov",
            BodyOp::Gather { .. } => "gather",
            BodyOp::Mvm { .. } => "mvm",
        }
    }
}

/// An output declaration: which persistent slot to read after the body
/// halts, and how to interpret it.
#[derive(Debug, Clone)]
pub(crate) struct ReadbackDecl {
    pub label: String,
    pub value: Value,
    pub elements: usize,
    pub signed: bool,
}

/// A complete kernel in IR form, as produced by
/// [`KirBuilder::finish`](crate::KirBuilder::finish).
#[derive(Debug, Clone)]
pub struct KernelIr {
    pub(crate) name: String,
    pub(crate) tile: HctConfig,
    pub(crate) values: Vec<ValueInfo>,
    pub(crate) vacores: Vec<VaCoreSpec>,
    pub(crate) setup: Vec<SetupItem>,
    pub(crate) inputs: Vec<InputDecl>,
    pub(crate) body: Vec<BodyOp>,
    pub(crate) readbacks: Vec<ReadbackDecl>,
}

impl KernelIr {
    /// Kernel name (becomes the job/class name).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The functional tile the kernel targets.
    pub fn tile(&self) -> &HctConfig {
        &self.tile
    }

    /// Compute ops in the body (each lowers to one instruction).
    pub fn body_ops(&self) -> usize {
        self.body.len()
    }

    pub(crate) fn info(&self, v: Value) -> &ValueInfo {
        &self.values[v.0 as usize]
    }

    /// Runs the verifier pass alone (compile runs it implicitly).
    ///
    /// # Errors
    ///
    /// Returns the first structural defect found; see [`CompileError`]
    /// for the full taxonomy.
    ///
    /// [`CompileError`]: crate::CompileError
    pub fn verify(&self) -> crate::Result<()> {
        crate::verify::verify(self)
    }

    /// Compiles the kernel: verify → allocate registers → lower to
    /// encoded split-program sections.
    ///
    /// # Errors
    ///
    /// Returns verifier diagnostics, [`RegisterPressure`] spills, or
    /// staging failures.
    ///
    /// [`RegisterPressure`]: crate::CompileError::RegisterPressure
    pub fn compile(&self) -> crate::Result<CompiledKernel> {
        crate::verify::verify(self)?;
        let alloc = crate::alloc::allocate(self)?;
        crate::lower::lower(self, &alloc)
    }
}
