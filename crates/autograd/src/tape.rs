//! The gradient tape, variables and trainable parameters.

use std::cell::RefCell;
use std::rc::Rc;

use ist_tensor::Tensor;

/// Backward rule of one node: maps the upstream gradient to per-parent
/// gradients. `needs[i]` tells the rule whether parent `i` actually requires
/// a gradient, letting it skip dead computation; entries for parents with
/// `needs[i] == false` may be `None`.
pub type BackwardFn = Box<dyn Fn(&Tensor, &[bool]) -> Vec<Option<Tensor>>>;

pub(crate) struct Node {
    /// Op kind that produced this node (`"leaf"` / `"const"` for inputs);
    /// drives profiler attribution and [`Tape::to_dot`] labels.
    pub op: &'static str,
    pub value: Tensor,
    pub parents: Vec<usize>,
    pub backward: Option<BackwardFn>,
    pub requires_grad: bool,
}

struct TapeInner {
    nodes: Vec<Node>,
    /// `(param, leaf id)` registrations made through [`Param::leaf`].
    param_hooks: Vec<(Param, usize)>,
    /// When false (inference tapes), recorded nodes keep their forward
    /// value but drop parents and backward closures at record time.
    grad_enabled: bool,
}

/// A recording of a forward computation.
///
/// Create one per training step, run the forward pass through [`Var`]
/// operations, call [`Tape::backward`] on the scalar loss, then drop it.
#[derive(Clone)]
pub struct Tape {
    inner: Rc<RefCell<TapeInner>>,
}

impl Default for Tape {
    fn default() -> Self {
        Self::new()
    }
}

impl Tape {
    /// An empty tape.
    pub fn new() -> Self {
        Tape::with_grad(true)
    }

    /// An empty *inference* tape: the same `Var` ops run on it, but every
    /// recorded node drops its parents and backward closure immediately, so
    /// the tape never retains the backward graph (no captured input clones,
    /// no closure allocations held across the forward pass). Calling
    /// [`Tape::backward`] on such a tape panics, and [`Param::leaf`] records
    /// a plain constant instead of a differentiable leaf.
    pub fn no_grad() -> Self {
        Tape::with_grad(false)
    }

    fn with_grad(grad_enabled: bool) -> Self {
        Tape {
            inner: Rc::new(RefCell::new(TapeInner {
                nodes: Vec::new(),
                param_hooks: Vec::new(),
                grad_enabled,
            })),
        }
    }

    /// True when this tape records backward rules (the default); false for
    /// [`Tape::no_grad`] inference tapes.
    pub fn grad_enabled(&self) -> bool {
        self.inner.borrow().grad_enabled
    }

    /// Number of recorded nodes (useful in tests / diagnostics).
    pub fn len(&self) -> usize {
        self.inner.borrow().nodes.len()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when both handles refer to the same recording.
    pub fn same_as(&self, other: &Tape) -> bool {
        Rc::ptr_eq(&self.inner, &other.inner)
    }

    pub(crate) fn push(
        &self,
        value: Tensor,
        parents: Vec<usize>,
        backward: Option<BackwardFn>,
        requires_grad: bool,
    ) -> Var {
        // Op fns open a `profile::fwd` guard before pushing, so the top of
        // the thread-local op stack names whichever op is recording.
        self.push_tagged(
            crate::profile::current_op(),
            value,
            parents,
            backward,
            requires_grad,
        )
    }

    fn push_tagged(
        &self,
        op: &'static str,
        value: Tensor,
        mut parents: Vec<usize>,
        mut backward: Option<BackwardFn>,
        mut requires_grad: bool,
    ) -> Var {
        crate::profile::note_output(op, value.len() as u64 * 4);
        let mut inner = self.inner.borrow_mut();
        if !inner.grad_enabled {
            // Inference tape: the backward closure (and whatever input
            // clones it captured) is freed right here, before the node is
            // stored, so the recording holds forward values only.
            parents = Vec::new();
            backward = None;
            requires_grad = false;
        }
        let id = inner.nodes.len();
        debug_assert!(
            parents.iter().all(|&p| p < id),
            "parents must precede children"
        );
        inner.nodes.push(Node {
            op,
            value,
            parents,
            backward,
            requires_grad,
        });
        Var {
            id,
            tape: self.clone(),
        }
    }

    /// Records a leaf that participates in differentiation.
    pub fn leaf(&self, value: Tensor) -> Var {
        self.push_tagged("leaf", value, vec![], None, true)
    }

    /// Records a constant: no gradient flows into it.
    pub fn constant(&self, value: Tensor) -> Var {
        self.push_tagged("const", value, vec![], None, false)
    }

    /// Records an op node with a mandatory backward rule (crate-internal
    /// convenience over [`Tape::push`]).
    pub(crate) fn push_node(
        &self,
        value: Tensor,
        parents: Vec<usize>,
        backward: BackwardFn,
        requires_grad: bool,
    ) -> Var {
        self.push(value, parents, Some(backward), requires_grad)
    }

    /// Test-only escape hatch for recording a node with a hand-written
    /// backward rule (used by the gradient checker's negative test).
    #[doc(hidden)]
    pub fn push_for_tests(
        &self,
        value: Tensor,
        parents: Vec<usize>,
        backward: Option<BackwardFn>,
    ) -> Var {
        self.push(value, parents, backward, true)
    }

    pub(crate) fn value_of(&self, id: usize) -> Tensor {
        self.inner.borrow().nodes[id].value.clone()
    }

    pub(crate) fn requires_grad_of(&self, id: usize) -> bool {
        self.inner.borrow().nodes[id].requires_grad
    }

    pub(crate) fn register_param_hook(&self, param: &Param, id: usize) {
        let mut inner = self.inner.borrow_mut();
        if !inner.grad_enabled {
            return; // inference tapes never route gradients back
        }
        inner.param_hooks.push((param.clone(), id));
    }

    /// Runs the reverse sweep from the scalar `loss` node and accumulates
    /// gradients into every [`Param`] registered on this tape.
    ///
    /// Returns the gradients of all nodes (indexed by node id) so callers
    /// can also inspect gradients of intermediate variables.
    pub fn backward(&self, loss: &Var) -> Vec<Option<Tensor>> {
        static BWD_TIMER: ist_obs::Timer = ist_obs::Timer::with_unit("autograd.backward", "node");
        assert!(
            Rc::ptr_eq(&self.inner, &loss.tape.inner),
            "loss var belongs to another tape"
        );
        let _sweep = BWD_TIMER.start_with(loss.id as u64 + 1);
        let _window = crate::profile::backward_window();
        let inner = self.inner.borrow();
        assert!(
            inner.grad_enabled,
            "backward() called on a no_grad inference tape"
        );
        assert_eq!(
            inner.nodes[loss.id].value.len(),
            1,
            "backward() requires a scalar loss, got shape {:?}",
            inner.nodes[loss.id].value.shape()
        );

        let mut grads: Vec<Option<Tensor>> = vec![None; inner.nodes.len()];
        grads[loss.id] = Some(Tensor::full(inner.nodes[loss.id].value.shape(), 1.0));

        for id in (0..=loss.id).rev() {
            let node = &inner.nodes[id];
            // Cheap structural checks first so the profiler guard below only
            // brackets nodes that actually run a backward rule.
            let Some(backward) = &node.backward else {
                continue;
            };
            if !node.requires_grad || grads[id].is_none() {
                continue;
            }
            let _p = crate::profile::bwd(node.op);
            let grad = grads[id].clone().expect("checked above");
            let needs: Vec<bool> = node
                .parents
                .iter()
                .map(|&p| inner.nodes[p].requires_grad)
                .collect();
            let parent_grads = backward(&grad, &needs);
            debug_assert_eq!(parent_grads.len(), node.parents.len());
            for (slot, g) in node.parents.iter().zip(parent_grads) {
                let Some(g) = g else { continue };
                if !inner.nodes[*slot].requires_grad {
                    continue;
                }
                debug_assert_eq!(
                    g.shape(),
                    inner.nodes[*slot].value.shape(),
                    "gradient shape mismatch flowing into node {slot}"
                );
                match &mut grads[*slot] {
                    Some(acc) => ist_tensor::ops::add_assign(acc, &g),
                    slot_ref @ None => *slot_ref = Some(g),
                }
            }
        }

        // Route leaf gradients back into registered parameters.
        for (param, id) in &inner.param_hooks {
            if let Some(g) = &grads[*id] {
                param.accumulate_grad(g);
            }
        }
        grads
    }

    /// Renders the recorded graph as Graphviz DOT (`isrec graph-dump`).
    ///
    /// One box per node labelled `#id op [shape]`; leaves registered through
    /// [`Param::leaf`] additionally carry the parameter name, constants are
    /// drawn dashed, and edges follow dataflow (parent → child).
    pub fn to_dot(&self) -> String {
        let inner = self.inner.borrow();
        let mut param_names: Vec<Option<String>> = vec![None; inner.nodes.len()];
        for (param, id) in &inner.param_hooks {
            param_names[*id] = Some(param.name());
        }
        let mut out =
            String::from("digraph tape {\n  rankdir=BT;\n  node [shape=box, fontsize=10];\n");
        for (id, node) in inner.nodes.iter().enumerate() {
            let mut label = format!("#{id} {} {:?}", node.op, node.value.shape());
            if let Some(name) = &param_names[id] {
                label.push_str(&format!("\\nparam: {name}"));
            }
            let style = if node.requires_grad {
                ""
            } else {
                ", style=dashed"
            };
            out.push_str(&format!(
                "  n{id} [label=\"{}\"{style}];\n",
                label.replace('"', "\\\"")
            ));
            for p in &node.parents {
                out.push_str(&format!("  n{p} -> n{id};\n"));
            }
        }
        out.push_str("}\n");
        out
    }
}

/// A handle to a node on a [`Tape`].
#[derive(Clone)]
pub struct Var {
    pub(crate) id: usize,
    pub(crate) tape: Tape,
}

impl Var {
    /// The node's current value. Shares the tape's buffer (no copy); a
    /// write through the returned tensor copies first, so it never changes
    /// the node.
    pub fn value(&self) -> Tensor {
        self.tape.value_of(self.id)
    }

    /// Shape of the node's value.
    pub fn shape(&self) -> Vec<usize> {
        self.tape.inner.borrow().nodes[self.id]
            .value
            .shape()
            .to_vec()
    }

    /// Whether gradients flow into this node.
    pub fn requires_grad(&self) -> bool {
        self.tape.requires_grad_of(self.id)
    }

    /// The tape this variable lives on.
    pub fn tape(&self) -> &Tape {
        &self.tape
    }

    /// Node id (for inspecting [`Tape::backward`]'s result vector).
    pub fn id(&self) -> usize {
        self.id
    }

    /// A gradient-stopped copy: same value, recorded as a constant.
    pub fn detach(&self) -> Var {
        self.tape.constant(self.value())
    }
}

struct ParamInner {
    name: String,
    value: Tensor,
    grad: Tensor,
}

/// A named trainable tensor with a gradient accumulator.
///
/// `Param` is shared (`Rc<RefCell<…>>`): layers keep clones, optimizers hold
/// the canonical list. Registering the param on a [`Tape`] via
/// [`Param::leaf`] makes it participate in that step's differentiation.
#[derive(Clone)]
pub struct Param {
    inner: Rc<RefCell<ParamInner>>,
}

impl Param {
    /// Creates a parameter with zeroed gradient.
    pub fn new(name: impl Into<String>, value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape());
        Param {
            inner: Rc::new(RefCell::new(ParamInner {
                name: name.into(),
                value,
                grad,
            })),
        }
    }

    /// The parameter's name (diagnostics, serialisation keys).
    pub fn name(&self) -> String {
        self.inner.borrow().name.clone()
    }

    /// The current value. Shares the parameter's buffer (no copy); the
    /// parameter's next update copies first if the result is still alive.
    pub fn value(&self) -> Tensor {
        self.inner.borrow().value.clone()
    }

    /// The accumulated gradient. Shares the accumulator's buffer (no copy).
    pub fn grad(&self) -> Tensor {
        self.inner.borrow().grad.clone()
    }

    /// Shape of the parameter.
    pub fn shape(&self) -> Vec<usize> {
        self.inner.borrow().value.shape().to_vec()
    }

    /// Number of scalar entries.
    pub fn num_elements(&self) -> usize {
        self.inner.borrow().value.len()
    }

    /// Registers the parameter on `tape` as a differentiable leaf and
    /// returns the resulting variable. After `tape.backward(..)`, the leaf's
    /// gradient is accumulated into this parameter.
    pub fn leaf(&self, tape: &Tape) -> Var {
        let var = tape.leaf(self.value());
        tape.register_param_hook(self, var.id);
        var
    }

    /// Adds `g` into the gradient accumulator.
    pub fn accumulate_grad(&self, g: &Tensor) {
        let mut inner = self.inner.borrow_mut();
        ist_tensor::ops::add_assign(&mut inner.grad, g);
    }

    /// Clears the gradient accumulator.
    pub fn zero_grad(&self) {
        let mut inner = self.inner.borrow_mut();
        let shape = inner.value.shape().to_vec();
        inner.grad = Tensor::zeros(&shape);
    }

    /// Applies `f(value, grad)` mutably — the optimizer update hook.
    pub fn update(&self, f: impl FnOnce(&mut Tensor, &Tensor)) {
        let mut inner = self.inner.borrow_mut();
        let grad = inner.grad.clone();
        f(&mut inner.value, &grad);
    }

    /// Replaces the value (e.g. when loading a snapshot). The gradient is
    /// reset to zeros of the new shape.
    pub fn set_value(&self, value: Tensor) {
        let mut inner = self.inner.borrow_mut();
        inner.grad = Tensor::zeros(value.shape());
        inner.value = value;
    }
}

impl std::fmt::Debug for Param {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        write!(
            f,
            "Param({:?}, shape {:?})",
            inner.name,
            inner.value.shape()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_and_constant_flags() {
        let tape = Tape::new();
        let a = tape.leaf(Tensor::scalar(1.0));
        let c = tape.constant(Tensor::scalar(2.0));
        assert!(a.requires_grad());
        assert!(!c.requires_grad());
        assert_eq!(tape.len(), 2);
    }

    #[test]
    fn backward_through_simple_chain() {
        // loss = sum(a * a) with a = [2, 3] ⇒ d loss/d a = 2a.
        let tape = Tape::new();
        let a = tape.leaf(Tensor::from_vec(vec![2.0, 3.0], &[2]));
        let sq = crate::ops::mul(&a, &a);
        let loss = crate::ops::sum_all(&sq);
        let grads = tape.backward(&loss);
        let ga = grads[a.id()].as_ref().unwrap();
        assert_eq!(ga.data(), &[4.0, 6.0]);
    }

    #[test]
    fn param_grad_accumulates_across_steps() {
        let p = Param::new("w", Tensor::from_vec(vec![1.0, -1.0], &[2]));
        for _ in 0..2 {
            let tape = Tape::new();
            let w = p.leaf(&tape);
            let loss = crate::ops::sum_all(&crate::ops::mul(&w, &w));
            tape.backward(&loss);
        }
        // Two backward passes, each contributing 2w.
        assert_eq!(p.grad().data(), &[4.0, -4.0]);
        p.zero_grad();
        assert_eq!(p.grad().data(), &[0.0, 0.0]);
    }

    #[test]
    fn constants_block_gradient_flow() {
        let tape = Tape::new();
        let a = tape.leaf(Tensor::scalar(3.0));
        let c = tape.constant(Tensor::scalar(5.0));
        let prod = crate::ops::mul(&a, &c);
        let loss = crate::ops::sum_all(&prod);
        let grads = tape.backward(&loss);
        assert_eq!(grads[a.id()].as_ref().unwrap().item(), 5.0);
        assert!(grads[c.id()].is_none());
    }

    #[test]
    fn detach_stops_gradients() {
        let tape = Tape::new();
        let a = tape.leaf(Tensor::scalar(3.0));
        let d = a.detach();
        let loss = crate::ops::sum_all(&crate::ops::mul(&a, &d));
        let grads = tape.backward(&loss);
        // d(a * detach(a))/da = detach(a) = 3, not 2a = 6.
        assert_eq!(grads[a.id()].as_ref().unwrap().item(), 3.0);
    }

    #[test]
    fn no_grad_tape_matches_forward_values_without_backward_graph() {
        let full = Tape::new();
        let inf = Tape::no_grad();
        assert!(full.grad_enabled());
        assert!(!inf.grad_enabled());
        let p = Param::new("w", Tensor::from_vec(vec![1.0, -2.0, 0.5], &[3]));
        let run = |tape: &Tape| {
            let w = p.leaf(tape);
            crate::ops::relu(&crate::ops::scale(&w, 2.0)).value()
        };
        assert_eq!(run(&full).data(), run(&inf).data());
        // The inference recording keeps values but no gradient structure.
        let inner = inf.inner.borrow();
        assert!(inner.param_hooks.is_empty());
        assert!(inner
            .nodes
            .iter()
            .all(|n| n.parents.is_empty() && n.backward.is_none() && !n.requires_grad));
    }

    #[test]
    #[should_panic(expected = "no_grad inference tape")]
    fn backward_on_no_grad_tape_panics() {
        let tape = Tape::no_grad();
        let a = tape.leaf(Tensor::scalar(2.0));
        let loss = crate::ops::sum_all(&crate::ops::mul(&a, &a));
        tape.backward(&loss);
    }

    #[test]
    #[should_panic(expected = "scalar loss")]
    fn non_scalar_loss_panics() {
        let tape = Tape::new();
        let a = tape.leaf(Tensor::zeros(&[2]));
        tape.backward(&a);
    }

    #[test]
    fn diamond_graph_accumulates() {
        // loss = (a + a) summed ⇒ grad 2.
        let tape = Tape::new();
        let a = tape.leaf(Tensor::scalar(1.5));
        let s = crate::ops::add(&a, &a);
        let loss = crate::ops::sum_all(&s);
        let grads = tape.backward(&loss);
        assert_eq!(grads[a.id()].as_ref().unwrap().item(), 2.0);
    }

    #[test]
    fn param_update_leaves_a_live_tape_leaf_unchanged() {
        let p = Param::new("w", Tensor::from_vec(vec![1.0, -2.0], &[2]));
        let tape = Tape::new();
        let w = p.leaf(&tape);
        p.update(|v, _| v.data_mut()[0] = 5.0);
        assert_eq!(w.value().data(), &[1.0, -2.0]);
        assert_eq!(p.value().data(), &[5.0, -2.0]);
    }

    #[test]
    fn mutating_a_value_leaves_the_node_unchanged() {
        let tape = Tape::new();
        let a = tape.leaf(Tensor::from_vec(vec![3.0, 4.0], &[2]));
        let mut v = a.value();
        v.data_mut()[1] = 0.0;
        ist_tensor::ops::add_assign(&mut v, &Tensor::ones(&[2]));
        assert_eq!(v.data(), &[4.0, 1.0]);
        assert_eq!(a.value().data(), &[3.0, 4.0]);
    }

    #[test]
    fn param_update_hook() {
        let p = Param::new("w", Tensor::scalar(1.0));
        let tape = Tape::new();
        let w = p.leaf(&tape);
        let loss = crate::ops::sum_all(&crate::ops::mul(&w, &w));
        tape.backward(&loss);
        p.update(|v, g| {
            // SGD with lr 0.1: w ← 1 - 0.1·2 = 0.8
            ist_tensor::ops::axpy(v, -0.1, g);
        });
        assert!((p.value().item() - 0.8).abs() < 1e-6);
    }
}
