//! Per-DIP constraint copies encoded from a key-cone plan.
//!
//! The SAT attack adds two consistency copies of the locked circuit per
//! DIP: inputs pinned to the DIP, keys shared with one side of the miter.
//! With the inputs pinned, every node outside the transitive fanout of the
//! key inputs folds to a constant, so [`encode`](crate::encode) emits
//! variables and clauses only for key-cone gates — yet it still walks the
//! whole netlist, and recomputes its topological order, for every copy.
//!
//! [`PinnedCopyEncoder`] plans the walk once: it finds the key cone and
//! keeps the cone's gates in topological order, the key-independent nodes
//! they (or the outputs) read, and one reusable [`Simulator`].
//! Per DIP, one simulation pass yields every key-independent node as a
//! constant; each key copy at that DIP then encodes only the cone gates.
//! The emitted CNF is clause-for-clause and variable-for-variable the one
//! `encode` emits under
//! [`Binding::with_pinned_inputs_shared_keys`](crate::Binding::with_pinned_inputs_shared_keys).

use polykey_netlist::analysis::transitive_fanout;
use polykey_netlist::{Netlist, NodeId, Simulator};
use polykey_sat::{ClauseSink, Lit};

use crate::tseitin::{encode_gate, CnfValue, EncodeError};

/// Encodes pinned-input, shared-key copies of one netlist, paying the
/// full-netlist walk once per DIP instead of once per copy.
///
/// # Examples
///
/// ```
/// use polykey_encode::{encode, Binding, PinnedCopyEncoder};
/// use polykey_netlist::{GateKind, Netlist};
/// use polykey_sat::{CnfFormula, ClauseSink};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut nl = Netlist::new("locked");
/// let a = nl.add_input("a")?;
/// let b = nl.add_input("b")?;
/// let k = nl.add_key_input("k")?;
/// let ab = nl.add_gate("ab", GateKind::And, &[a, b])?;
/// let y = nl.add_gate("y", GateKind::Xor, &[ab, k])?;
/// nl.mark_output(ab)?;
/// nl.mark_output(y)?;
///
/// let mut fast = CnfFormula::new();
/// let key = fast.new_var().positive();
/// let mut copies = PinnedCopyEncoder::new(&nl)?;
/// let outputs = copies.pin_inputs(&[true, true])?.encode_copy(&mut fast, &[key])?;
///
/// // The same CNF as a full `encode` of the pinned copy.
/// let mut reference = CnfFormula::new();
/// let key = reference.new_var().positive();
/// let binding = Binding::with_pinned_inputs_shared_keys(&[true, true], &[key]);
/// let enc = encode(&mut reference, &nl, &binding)?;
/// assert_eq!(outputs, enc.outputs);
/// assert_eq!(fast, reference);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct PinnedCopyEncoder<'a> {
    netlist: &'a Netlist,
    /// The key cone's non-input gates, in topological order.
    cone_gates: Vec<NodeId>,
    /// Nodes outside the key cone whose constant a copy reads: fanins of cone
    /// gates and outputs outside the cone.
    boundary: Vec<NodeId>,
    sim: Simulator<'a>,
    input_words: Vec<u64>,
    zero_keys: Vec<u64>,
    /// The current copy's value of every cone and boundary node.
    values: Vec<CnfValue>,
    fanin_buf: Vec<CnfValue>,
}

impl<'a> PinnedCopyEncoder<'a> {
    /// Plans pinned copies of `netlist`: the key cone, its gates in
    /// topological order, and the simulator that folds everything else.
    ///
    /// # Errors
    ///
    /// Returns [`EncodeError::Netlist`] for cyclic netlists.
    pub fn new(netlist: &'a Netlist) -> Result<PinnedCopyEncoder<'a>, EncodeError> {
        let sim = Simulator::new(netlist)?;
        // The key cone: the transitive fanout of the key inputs, which
        // includes the key inputs themselves.
        let in_cone = transitive_fanout(netlist, netlist.key_inputs());
        let cone_gates: Vec<NodeId> = sim
            .order()
            .iter()
            .copied()
            .filter(|&id| in_cone[id.index()] && !netlist.node(id).kind().is_input())
            .collect();
        let mut on_boundary = vec![false; netlist.num_nodes()];
        let read_by_cone = cone_gates.iter().flat_map(|&id| netlist.node(id).fanins());
        for &id in read_by_cone.chain(netlist.outputs()) {
            if !in_cone[id.index()] {
                on_boundary[id.index()] = true;
            }
        }
        let boundary = netlist.node_ids().filter(|id| on_boundary[id.index()]).collect();
        Ok(PinnedCopyEncoder {
            netlist,
            cone_gates,
            boundary,
            sim,
            input_words: vec![0; netlist.inputs().len()],
            zero_keys: vec![0; netlist.key_inputs().len()],
            values: vec![CnfValue::Const(false); netlist.num_nodes()],
            fanin_buf: Vec::with_capacity(8),
        })
    }

    /// The number of gates a copy encodes: the key cone without its inputs.
    pub fn cone_gates(&self) -> usize {
        self.cone_gates.len()
    }

    /// Pins the primary inputs to `pattern` with one simulation pass (keys
    /// at 0; no node outside the key cone depends on them). The returned
    /// handle encodes any number of key copies at this pattern.
    ///
    /// # Errors
    ///
    /// Returns [`EncodeError::BindingWidth`] when `pattern` does not match
    /// the netlist's input count.
    pub fn pin_inputs(
        &mut self,
        pattern: &[bool],
    ) -> Result<PinnedInputs<'_, 'a>, EncodeError> {
        if pattern.len() != self.input_words.len() {
            return Err(EncodeError::BindingWidth {
                which: "inputs",
                expected: self.input_words.len(),
                got: pattern.len(),
            });
        }
        for (word, &bit) in self.input_words.iter_mut().zip(pattern) {
            *word = if bit { u64::MAX } else { 0 };
        }
        let words = self.sim.node_values_packed(&self.input_words, &self.zero_keys);
        for &id in &self.boundary {
            self.values[id.index()] = CnfValue::Const(words[id.index()] & 1 == 1);
        }
        Ok(PinnedInputs { plan: self })
    }
}

/// A [`PinnedCopyEncoder`] with its inputs pinned to one pattern.
#[derive(Debug)]
pub struct PinnedInputs<'p, 'a> {
    plan: &'p mut PinnedCopyEncoder<'a>,
}

impl PinnedInputs<'_, '_> {
    /// Encodes one copy whose key inputs share the literals `keys`, and
    /// returns its output values in declaration order. Outputs outside the
    /// key cone come back as [`CnfValue::Const`].
    ///
    /// # Errors
    ///
    /// Returns [`EncodeError::BindingWidth`] when `keys` does not match the
    /// netlist's key count.
    pub fn encode_copy<S: ClauseSink>(
        &mut self,
        sink: &mut S,
        keys: &[Lit],
    ) -> Result<Vec<CnfValue>, EncodeError> {
        let plan = &mut *self.plan;
        let netlist = plan.netlist;
        if keys.len() != netlist.key_inputs().len() {
            return Err(EncodeError::BindingWidth {
                which: "keys",
                expected: netlist.key_inputs().len(),
                got: keys.len(),
            });
        }
        for (&ki, &lit) in netlist.key_inputs().iter().zip(keys) {
            plan.values[ki.index()] = CnfValue::Lit(lit);
        }
        for &id in &plan.cone_gates {
            let node = netlist.node(id);
            plan.fanin_buf.clear();
            plan.fanin_buf.extend(node.fanins().iter().map(|f| plan.values[f.index()]));
            plan.values[id.index()] = encode_gate(sink, node.kind(), &plan.fanin_buf);
        }
        Ok(netlist.outputs().iter().map(|o| plan.values[o.index()]).collect())
    }
}
