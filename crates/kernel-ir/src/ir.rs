//! The kernel IR data structures.

use std::fmt;

use dlp_common::json::ToJson;
use dlp_common::{DlpError, Value};
use trips_isa::{OpRole, Opcode};

/// The application domain a kernel belongs to (Table 1's grouping).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, ToJson)]
pub enum Domain {
    /// DSP / multimedia processing.
    Multimedia,
    /// Scientific codes.
    Scientific,
    /// Network processing and security.
    Network,
    /// Real-time graphics.
    Graphics,
}

impl fmt::Display for Domain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Domain::Multimedia => write!(f, "multimedia"),
            Domain::Scientific => write!(f, "scientific"),
            Domain::Network => write!(f, "network"),
            Domain::Graphics => write!(f, "graphics"),
        }
    }
}

/// A kernel's control-behavior class (the paper's Figure 1 taxonomy).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, ToJson)]
pub enum ControlClass {
    /// Figure 1a: a straight-line instruction sequence.
    Straight,
    /// Figure 1b: an internal loop with static bounds (unrolled in the DAG).
    FixedLoop {
        /// The static trip count.
        iters: u32,
    },
    /// Figure 1c: data-dependent trip count (unrolled to `max_iters` with
    /// select merges in the DAG; a MIMD machine executes only the live
    /// iterations).
    VariableLoop {
        /// Maximum trip count the DAG is unrolled to.
        max_iters: u32,
    },
}

impl ControlClass {
    /// Whether the kernel prefers fine-grain MIMD execution (data-dependent
    /// branching, per §2.1.2).
    #[must_use]
    pub fn is_data_dependent(self) -> bool {
        matches!(self, ControlClass::VariableLoop { .. })
    }

    /// The Table 2 "Loop bounds" cell.
    #[must_use]
    pub fn loop_bounds_label(self) -> String {
        match self {
            ControlClass::Straight => "-".to_string(),
            ControlClass::FixedLoop { iters } => iters.to_string(),
            ControlClass::VariableLoop { .. } => "Variable".to_string(),
        }
    }
}

/// Reference to an IR node (index into [`KernelIr::nodes`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, ToJson)]
pub struct IrRef(pub(crate) u32);

impl IrRef {
    /// The node index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A lookup table of indexed named constants (§2.1.1).
#[derive(Clone, Debug, PartialEq, ToJson)]
pub struct TableSpec {
    /// Human-readable name ("sbox0", "bone matrices").
    pub name: String,
    /// Table contents; entry *i* is returned by a `TableRead` with index
    /// *i*.
    pub entries: Vec<Value>,
}

/// One IR operation.
#[derive(Clone, Copy, Debug, PartialEq, ToJson)]
pub enum IrOp {
    /// Word `i` of the kernel's input record (a regular, streamed access).
    RecordIn(u16),
    /// A named scalar constant (index into the kernel's constant pool);
    /// lives in the register file, or in revitalized operands on S-O
    /// machines.
    Const(u16),
    /// A literal produced inside the kernel (an immediate).
    Imm(Value),
    /// An indexed named constant: entry `index` of `table`.
    TableRead {
        /// Which table.
        table: u16,
        /// Node computing the entry index.
        index: IrRef,
    },
    /// An irregular memory access at a kernel-computed word address.
    IrregularLoad {
        /// Node computing the word address.
        addr: IrRef,
    },
    /// A unary ALU operation.
    Un {
        /// Opcode (must be unary).
        op: Opcode,
        /// Operand.
        a: IrRef,
    },
    /// A binary ALU operation.
    Bin {
        /// Opcode.
        op: Opcode,
        /// Left operand.
        a: IrRef,
        /// Right operand.
        b: IrRef,
    },
    /// Select: `p ? a : b` (the predication idiom on SIMD machines).
    Sel {
        /// Predicate.
        p: IrRef,
        /// Value when true.
        a: IrRef,
        /// Value when false.
        b: IrRef,
    },
}

/// An IR node: the operation plus its overhead/useful classification.
#[derive(Clone, Copy, Debug, PartialEq, ToJson)]
pub struct IrNode {
    /// The operation.
    pub op: IrOp,
    /// Whether this op counts toward the ops/cycle metric.
    pub role: OpRole,
}

/// A complete kernel: one instance of the data-parallel loop body.
#[derive(Clone, Debug, PartialEq, ToJson)]
pub struct KernelIr {
    pub(crate) name: String,
    pub(crate) domain: Domain,
    pub(crate) nodes: Vec<IrNode>,
    pub(crate) outputs: Vec<(u16, IrRef)>,
    pub(crate) record_in_words: u16,
    pub(crate) record_out_words: u16,
    pub(crate) constants: Vec<(String, Value)>,
    pub(crate) tables: Vec<TableSpec>,
    pub(crate) control: ControlClass,
}

impl KernelIr {
    /// Kernel name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Application domain.
    #[must_use]
    pub fn domain(&self) -> Domain {
        self.domain
    }

    /// The IR nodes in topological (construction) order.
    #[must_use]
    pub fn nodes(&self) -> &[IrNode] {
        &self.nodes
    }

    /// Record outputs: `(word index, value node)` pairs.
    #[must_use]
    pub fn outputs(&self) -> &[(u16, IrRef)] {
        &self.outputs
    }

    /// Input record size in 64-bit words.
    #[must_use]
    pub fn record_in_words(&self) -> u16 {
        self.record_in_words
    }

    /// Output record size in 64-bit words.
    #[must_use]
    pub fn record_out_words(&self) -> u16 {
        self.record_out_words
    }

    /// The named scalar constant pool.
    #[must_use]
    pub fn constants(&self) -> &[(String, Value)] {
        &self.constants
    }

    /// The lookup tables (indexed named constants).
    #[must_use]
    pub fn tables(&self) -> &[TableSpec] {
        &self.tables
    }

    /// Control-behavior class.
    #[must_use]
    pub fn control(&self) -> ControlClass {
        self.control
    }

    /// Total lookup-table entries across all tables.
    #[must_use]
    pub fn table_entries(&self) -> usize {
        self.tables.iter().map(|t| t.entries.len()).sum()
    }

    /// Evaluate the kernel functionally on one input record.
    ///
    /// `irregular` resolves [`IrOp::IrregularLoad`] addresses (it receives
    /// the word address and returns the loaded value). Returns the output
    /// record. This reference evaluator is what the simulator's results are
    /// cross-checked against in tests.
    ///
    /// # Panics
    ///
    /// Panics if `record` is shorter than the declared input record — a
    /// driver bug, not a data condition.
    #[must_use]
    pub fn eval_record(&self, record: &[Value], irregular: &dyn Fn(u64) -> Value) -> Vec<Value> {
        assert!(
            record.len() >= self.record_in_words as usize,
            "record has {} words, kernel {} expects {}",
            record.len(),
            self.name,
            self.record_in_words
        );
        let mut vals: Vec<Value> = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let v = match node.op {
                IrOp::RecordIn(i) => record[i as usize],
                IrOp::Const(i) => self.constants[i as usize].1,
                IrOp::Imm(v) => v,
                IrOp::TableRead { table, index } => {
                    let t = &self.tables[table as usize];
                    let idx = vals[index.index()].as_u64() as usize;
                    t.entries.get(idx).copied().unwrap_or(Value::ZERO)
                }
                IrOp::IrregularLoad { addr } => irregular(vals[addr.index()].as_u64()),
                IrOp::Un { op, a } => trips_isa::exec::eval(op, vals[a.index()], Value::ZERO, Value::ZERO),
                IrOp::Bin { op, a, b } => {
                    trips_isa::exec::eval(op, vals[a.index()], vals[b.index()], Value::ZERO)
                }
                IrOp::Sel { p, a, b } => {
                    trips_isa::exec::eval(Opcode::Sel, vals[a.index()], vals[b.index()], vals[p.index()])
                }
            };
            vals.push(v);
        }
        let mut out = vec![Value::ZERO; self.record_out_words as usize];
        for &(i, r) in &self.outputs {
            out[i as usize] = vals[r.index()];
        }
        out
    }

    /// Structural validation (references in range and topologically
    /// ordered, outputs unique and in range, table/constant indices valid).
    ///
    /// # Errors
    ///
    /// Returns [`DlpError::MalformedProgram`] describing the first defect.
    pub fn validate(&self) -> Result<(), DlpError> {
        let bad = |detail: String| Err(DlpError::MalformedProgram { detail });
        for (i, node) in self.nodes.iter().enumerate() {
            let check = |r: IrRef| -> Result<(), DlpError> {
                if r.index() >= i {
                    return Err(DlpError::MalformedProgram {
                        detail: format!("kernel {}: node {i} references later node {}", self.name, r.index()),
                    });
                }
                Ok(())
            };
            match node.op {
                IrOp::RecordIn(w) => {
                    if w >= self.record_in_words {
                        return bad(format!("kernel {}: input word {w} out of record", self.name));
                    }
                }
                IrOp::Const(c) => {
                    if c as usize >= self.constants.len() {
                        return bad(format!("kernel {}: constant {c} undefined", self.name));
                    }
                }
                IrOp::Imm(_) => {}
                IrOp::TableRead { table, index } => {
                    if table as usize >= self.tables.len() {
                        return bad(format!("kernel {}: table {table} undefined", self.name));
                    }
                    check(index)?;
                }
                IrOp::IrregularLoad { addr } => check(addr)?,
                IrOp::Un { op, a } => {
                    let (_, r, _) = op.ports();
                    if r || op.is_mem() || matches!(op, Opcode::MovI | Opcode::Iter | Opcode::Nop) {
                        return bad(format!("kernel {}: {op} is not a unary ALU op", self.name));
                    }
                    check(a)?;
                }
                IrOp::Bin { op, a, b } => {
                    if op.is_mem() || matches!(op, Opcode::Sel | Opcode::MovI | Opcode::Iter | Opcode::Nop) {
                        return bad(format!("kernel {}: {op} is not a binary ALU op", self.name));
                    }
                    check(a)?;
                    check(b)?;
                }
                IrOp::Sel { p, a, b } => {
                    check(p)?;
                    check(a)?;
                    check(b)?;
                }
            }
        }
        let mut seen = vec![false; self.record_out_words as usize];
        for &(w, r) in &self.outputs {
            if w >= self.record_out_words {
                return bad(format!("kernel {}: output word {w} out of record", self.name));
            }
            if r.index() >= self.nodes.len() {
                return bad(format!("kernel {}: output references missing node", self.name));
            }
            if seen[w as usize] {
                return bad(format!("kernel {}: output word {w} written twice", self.name));
            }
            seen[w as usize] = true;
        }
        if let Some(w) = seen.iter().position(|s| !s) {
            return bad(format!("kernel {}: output word {w} never written", self.name));
        }
        Ok(())
    }
}
