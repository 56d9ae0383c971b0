//! The computation graph and the Fig. 1 rewrite pass.

use crate::layer::{ExecCtx, Layer};
use crate::layers::{Conv2D, MaxOf, MinOf};
use crate::NnError;
use axtensor::{Shape4, Tensor};
use std::borrow::Cow;
use std::sync::Arc;

/// Identifier of a graph node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(usize);

impl NodeId {
    /// Raw index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

#[derive(Debug, Clone)]
enum NodeKind {
    /// The graph's single input placeholder.
    Input,
    /// An operator node.
    Op(Arc<dyn Layer>),
}

#[derive(Debug, Clone)]
struct Node {
    name: String,
    kind: NodeKind,
    inputs: Vec<NodeId>,
}

/// A DAG of named operator nodes with a single input placeholder.
///
/// Nodes are appended in topological order by construction (a node may
/// only reference earlier nodes), so execution is a single forward sweep.
///
/// # Example
///
/// ```
/// use axnn::{Graph, layers::ReLU};
/// use axtensor::{Shape4, Tensor};
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), axnn::NnError> {
/// let mut g = Graph::new();
/// let x = g.input();
/// let y = g.add("act", Arc::new(ReLU::new()), &[x])?;
/// g.set_output(y)?;
/// let t = Tensor::from_vec(Shape4::new(1, 1, 1, 2), vec![-1.0, 2.0])?;
/// assert_eq!(g.forward(&t)?.as_slice(), &[0.0, 2.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Graph {
    nodes: Vec<Node>,
    output: Option<NodeId>,
}

impl Graph {
    /// An empty graph holding only the input placeholder.
    #[must_use]
    pub fn new() -> Self {
        Graph {
            nodes: vec![Node {
                name: "input".to_owned(),
                kind: NodeKind::Input,
                inputs: Vec::new(),
            }],
            output: None,
        }
    }

    /// Id of the input placeholder.
    #[must_use]
    pub fn input(&self) -> NodeId {
        NodeId(0)
    }

    /// Append an operator node.
    ///
    /// # Errors
    ///
    /// - [`NnError::UnknownNode`] if an input id does not exist yet.
    /// - [`NnError::InputArity`] if the edge count differs from the
    ///   layer's arity.
    pub fn add(
        &mut self,
        name: impl Into<String>,
        layer: Arc<dyn Layer>,
        inputs: &[NodeId],
    ) -> Result<NodeId, NnError> {
        for id in inputs {
            if id.0 >= self.nodes.len() {
                return Err(NnError::UnknownNode(id.0));
            }
        }
        let name = name.into();
        if inputs.len() != layer.arity() {
            return Err(NnError::InputArity {
                layer: name,
                expected: layer.arity(),
                got: inputs.len(),
            });
        }
        self.nodes.push(Node {
            name,
            kind: NodeKind::Op(layer),
            inputs: inputs.to_vec(),
        });
        Ok(NodeId(self.nodes.len() - 1))
    }

    /// Declare the output node.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::UnknownNode`] for an id that does not exist.
    pub fn set_output(&mut self, id: NodeId) -> Result<(), NnError> {
        if id.0 >= self.nodes.len() {
            return Err(NnError::UnknownNode(id.0));
        }
        self.output = Some(id);
        Ok(())
    }

    /// Number of nodes (including the input placeholder).
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph holds only the input placeholder.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// Iterate over `(name, op_name)` of every operator node.
    pub fn ops(&self) -> impl Iterator<Item = (&str, &str)> {
        self.nodes.iter().filter_map(|n| match &n.kind {
            NodeKind::Input => None,
            NodeKind::Op(l) => Some((n.name.as_str(), l.op_name())),
        })
    }

    /// Count of 2D convolution layers (accurate or approximate) — the
    /// paper's `L` column.
    #[must_use]
    pub fn conv_layer_count(&self) -> usize {
        self.conv_layers().count()
    }

    /// Iterate over `(id, name)` of every 2D convolution layer (accurate
    /// or approximate) in topological order — the layer identifiers a
    /// per-layer multiplier assignment indexes into.
    pub fn conv_layers(&self) -> impl Iterator<Item = (NodeId, &str)> {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| match &n.kind {
                NodeKind::Op(l) if l.op_name().ends_with("Conv2D") => {
                    Some((NodeId(i), n.name.as_str()))
                }
                _ => None,
            })
    }

    /// Name of a node, if the id exists.
    #[must_use]
    pub fn node_name(&self, id: NodeId) -> Option<&str> {
        self.nodes.get(id.0).map(|n| n.name.as_str())
    }

    /// Execute the graph on one input batch, serially.
    ///
    /// # Errors
    ///
    /// - [`NnError::NoOutput`] if no output node was declared.
    /// - Propagates layer execution errors.
    pub fn forward(&self, input: &Tensor<f32>) -> Result<Tensor<f32>, NnError> {
        self.run(input, &ExecCtx::default())
    }

    /// Execute the graph under `ctx`: every operator runs through
    /// [`Layer::forward_ctx`] on the calling thread, and may split its
    /// work across `ctx.pool`.
    ///
    /// With segments in the context the batch is a *fused* one, and
    /// segment-aware operators (the `Min`/`Max` observers, quantizing
    /// layers) treat each segment exactly as a solo run of that segment
    /// would — which makes the fused output bit-identical to the
    /// concatenation of per-segment solo outputs.
    ///
    /// Each node's output is dropped once its last consumer has run; only
    /// the declared output outlives the sweep.
    ///
    /// # Errors
    ///
    /// - [`NnError::NoOutput`] if no output node was declared.
    /// - [`NnError::SegmentMismatch`] if the segments' total differs from
    ///   the input's batch count.
    /// - Propagates layer execution errors.
    pub fn run(&self, input: &Tensor<f32>, ctx: &ExecCtx<'_>) -> Result<Tensor<f32>, NnError> {
        let out = self.output.ok_or(NnError::NoOutput)?;
        if let Some(segments) = ctx.segments {
            if segments.total() != input.shape().n {
                return Err(NnError::SegmentMismatch {
                    images: input.shape().n,
                    covered: segments.total(),
                });
            }
        }
        // The index of each node's last consumer; the output is kept.
        let mut last_use = vec![0usize; self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            for id in &node.inputs {
                last_use[id.0] = i;
            }
        }
        last_use[out.0] = usize::MAX;
        // The `Input` node borrows `input`; only operator outputs are owned.
        let mut values: Vec<Option<Cow<'_, Tensor<f32>>>> = vec![None; self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            let value = match &node.kind {
                NodeKind::Input => Cow::Borrowed(input),
                NodeKind::Op(layer) => {
                    let ins: Vec<&Tensor<f32>> = node
                        .inputs
                        .iter()
                        .map(|id| values[id.0].as_deref().expect("topological order"))
                        .collect();
                    Cow::Owned(layer.forward_ctx(&ins, ctx)?)
                }
            };
            values[i] = Some(value);
            for id in &node.inputs {
                if last_use[id.0] == i {
                    values[id.0] = None;
                }
            }
        }
        Ok(values[out.0].take().expect("executed above").into_owned())
    }

    /// Infer the shape of every node for a given input shape.
    ///
    /// # Errors
    ///
    /// Propagates shape-inference failures; [`NnError::NoOutput`] is *not*
    /// required here (shapes are inferable without an output).
    pub fn infer_shapes(&self, input: Shape4) -> Result<Vec<Shape4>, NnError> {
        let mut shapes = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let s = match &node.kind {
                NodeKind::Input => input,
                NodeKind::Op(layer) => {
                    let ins: Vec<Shape4> = node.inputs.iter().map(|id| shapes[id.0]).collect();
                    layer.output_shape(&ins)?
                }
            };
            shapes.push(s);
        }
        Ok(shapes)
    }

    /// Total multiply-accumulate count for one forward pass at the given
    /// input shape (the paper's `# MACs` for a single image when
    /// `input.n == 1`).
    ///
    /// # Errors
    ///
    /// Propagates shape-inference failures.
    pub fn mac_count(&self, input: Shape4) -> Result<u64, NnError> {
        let shapes = self.infer_shapes(input)?;
        let mut total = 0u64;
        for node in &self.nodes {
            if let NodeKind::Op(layer) = &node.kind {
                let ins: Vec<Shape4> = node.inputs.iter().map(|id| shapes[id.0]).collect();
                total += layer.mac_count(&ins)?;
            }
        }
        Ok(total)
    }

    /// Render a human-readable summary table: one line per node with its
    /// operator, inferred output shape and MAC count for the given input
    /// shape.
    ///
    /// # Errors
    ///
    /// Propagates shape-inference failures.
    pub fn summary(&self, input: Shape4) -> Result<String, NnError> {
        use std::fmt::Write as _;
        let shapes = self.infer_shapes(input)?;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{:<28} {:>10} {:>18} {:>14}",
            "node", "op", "output", "MACs"
        );
        let mut total = 0u64;
        for (i, node) in self.nodes.iter().enumerate() {
            let (op, macs) = match &node.kind {
                NodeKind::Input => ("input".to_owned(), 0),
                NodeKind::Op(layer) => {
                    let ins: Vec<Shape4> = node.inputs.iter().map(|id| shapes[id.0]).collect();
                    (layer.op_name().to_owned(), layer.mac_count(&ins)?)
                }
            };
            total += macs;
            let _ = writeln!(
                s,
                "{:<28} {:>10} {:>18} {:>14}",
                node.name,
                op,
                shapes[i].to_string(),
                macs
            );
        }
        let _ = writeln!(s, "{:<28} {:>10} {:>18} {:>14}", "TOTAL", "", "", total);
        Ok(s)
    }

    /// The paper's design-flow transform (Fig. 1): replace every `Conv2D`
    /// by the layer `replacer` produces, inserting `Min` and `Max`
    /// observers on the convolution's input and wiring them as the extra
    /// range inputs of the replacement (which must therefore have arity 3:
    /// `[input, min, max]`).
    ///
    /// Returns the transformed graph and the number of replacements.
    ///
    /// # Errors
    ///
    /// Propagates node-construction failures.
    pub fn rewrite_convs(
        &self,
        mut replacer: impl FnMut(&Conv2D) -> Arc<dyn Layer>,
    ) -> Result<(Graph, usize), NnError> {
        let mut out = Graph::new();
        let mut map: Vec<NodeId> = Vec::with_capacity(self.nodes.len());
        map.push(out.input());
        let mut replaced = 0usize;
        for node in self.nodes.iter().skip(1) {
            let mapped: Vec<NodeId> = node.inputs.iter().map(|id| map[id.0]).collect();
            let NodeKind::Op(layer) = &node.kind else {
                unreachable!("only node 0 is the input placeholder");
            };
            let new_id = if let Some(conv) = layer.as_conv2d() {
                let src = mapped[0];
                let lo = out.add(format!("{}/min", node.name), Arc::new(MinOf::new()), &[src])?;
                let hi = out.add(format!("{}/max", node.name), Arc::new(MaxOf::new()), &[src])?;
                replaced += 1;
                out.add(node.name.clone(), replacer(conv), &[src, lo, hi])?
            } else {
                out.add(node.name.clone(), Arc::clone(layer), &mapped)?
            };
            map.push(new_id);
        }
        if let Some(o) = self.output {
            out.set_output(map[o.0])?;
        }
        Ok((out, replaced))
    }
}

impl Default for Graph {
    fn default() -> Self {
        Graph::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Add, ReLU};
    use axtensor::{rng, ConvGeometry, FilterShape};

    fn tiny_conv() -> Arc<dyn Layer> {
        Arc::new(Conv2D::new(
            rng::uniform_filter(FilterShape::new(3, 3, 1, 2), 1, -0.5, 0.5),
            ConvGeometry::default(),
        ))
    }

    #[test]
    fn linear_chain_executes() {
        let mut g = Graph::new();
        let x = g.input();
        let c = g.add("conv", tiny_conv(), &[x]).unwrap();
        let r = g.add("relu", Arc::new(ReLU::new()), &[c]).unwrap();
        g.set_output(r).unwrap();
        let input = rng::uniform(Shape4::new(1, 4, 4, 1), 2, -1.0, 1.0);
        let out = g.forward(&input).unwrap();
        assert_eq!(out.shape(), Shape4::new(1, 4, 4, 2));
        assert!(out.as_slice().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn diamond_residual_executes() {
        let mut g = Graph::new();
        let x = g.input();
        let r = g.add("relu", Arc::new(ReLU::new()), &[x]).unwrap();
        let a = g.add("add", Arc::new(Add::new()), &[x, r]).unwrap();
        g.set_output(a).unwrap();
        let input = Tensor::from_vec(Shape4::new(1, 1, 2, 1), vec![-1.0, 2.0]).unwrap();
        let out = g.forward(&input).unwrap();
        assert_eq!(out.as_slice(), &[-1.0, 4.0]);
    }

    #[test]
    fn output_consumed_by_a_later_node_is_still_returned() {
        let mut g = Graph::new();
        let x = g.input();
        let r = g.add("relu", Arc::new(ReLU::new()), &[x]).unwrap();
        let a = g.add("add", Arc::new(Add::new()), &[r, x]).unwrap();
        g.add("tail", Arc::new(ReLU::new()), &[a]).unwrap();
        g.set_output(r).unwrap();
        let input = Tensor::from_vec(Shape4::new(1, 1, 2, 1), vec![-1.0, 2.0]).unwrap();
        assert_eq!(g.forward(&input).unwrap().as_slice(), &[0.0, 2.0]);
    }

    #[test]
    fn node_feeding_one_consumer_twice_is_freed_after_it() {
        let mut g = Graph::new();
        let x = g.input();
        let r = g.add("relu", Arc::new(ReLU::new()), &[x]).unwrap();
        let a = g.add("double", Arc::new(Add::new()), &[r, r]).unwrap();
        let b = g.add("again", Arc::new(Add::new()), &[a, a]).unwrap();
        g.set_output(b).unwrap();
        let input = Tensor::from_vec(Shape4::new(1, 1, 2, 1), vec![-1.0, 2.0]).unwrap();
        assert_eq!(g.forward(&input).unwrap().as_slice(), &[0.0, 8.0]);
    }

    #[test]
    fn forward_requires_output() {
        let g = Graph::new();
        let t = Tensor::<f32>::zeros(Shape4::new(1, 1, 1, 1));
        assert!(matches!(g.forward(&t).unwrap_err(), NnError::NoOutput));
    }

    #[test]
    fn unknown_input_id_rejected() {
        let mut g = Graph::new();
        let bogus = NodeId(5);
        assert!(matches!(
            g.add("r", Arc::new(ReLU::new()), &[bogus]).unwrap_err(),
            NnError::UnknownNode(5)
        ));
    }

    #[test]
    fn arity_mismatch_rejected_at_build() {
        let mut g = Graph::new();
        let x = g.input();
        assert!(g.add("add", Arc::new(Add::new()), &[x]).is_err());
    }

    #[test]
    fn mac_count_sums_convs() {
        let mut g = Graph::new();
        let x = g.input();
        let c = g.add("conv", tiny_conv(), &[x]).unwrap();
        g.set_output(c).unwrap();
        // 4x4x2 output, 9-tap, 1 channel: 4*4*2*9.
        assert_eq!(g.mac_count(Shape4::new(1, 4, 4, 1)).unwrap(), 288);
    }

    #[test]
    fn rewrite_inserts_min_max_and_replaces() {
        let mut g = Graph::new();
        let x = g.input();
        let c = g.add("conv1", tiny_conv(), &[x]).unwrap();
        let r = g.add("relu", Arc::new(ReLU::new()), &[c]).unwrap();
        g.set_output(r).unwrap();

        // A fake 3-input replacement that ignores the ranges and applies
        // the original conv — structure is what we verify here.
        #[derive(Debug)]
        struct Fake(Conv2D);
        impl Layer for Fake {
            fn op_name(&self) -> &str {
                "AxConv2D"
            }
            fn arity(&self) -> usize {
                3
            }
            fn output_shape(&self, inputs: &[Shape4]) -> Result<Shape4, NnError> {
                self.0.output_shape(&inputs[..1])
            }
            fn forward(&self, inputs: &[&Tensor<f32>]) -> Result<Tensor<f32>, NnError> {
                self.0.forward(&inputs[..1])
            }
        }

        let (rew, n) = g
            .rewrite_convs(|conv| Arc::new(Fake(conv.clone())))
            .unwrap();
        assert_eq!(n, 1);
        let ops: Vec<(String, String)> = rew
            .ops()
            .map(|(a, b)| (a.to_owned(), b.to_owned()))
            .collect();
        assert!(ops.iter().any(|(_, op)| op == "Min"));
        assert!(ops.iter().any(|(_, op)| op == "Max"));
        assert!(ops.iter().any(|(_, op)| op == "AxConv2D"));
        assert!(!ops.iter().any(|(_, op)| op == "Conv2D"));

        // And it still executes, producing the same values as the fake
        // passthrough.
        let input = rng::uniform(Shape4::new(1, 4, 4, 1), 3, -1.0, 1.0);
        let a = g.forward(&input).unwrap();
        let b = rew.forward(&input).unwrap();
        assert!(a.max_abs_diff(&b).unwrap() < 1e-6);
    }

    #[test]
    fn summary_lists_nodes_and_total() {
        let mut g = Graph::new();
        let x = g.input();
        let c = g.add("conv", tiny_conv(), &[x]).unwrap();
        let r = g.add("relu", Arc::new(ReLU::new()), &[c]).unwrap();
        g.set_output(r).unwrap();
        let s = g.summary(Shape4::new(1, 4, 4, 1)).unwrap();
        assert!(s.contains("conv"));
        assert!(s.contains("ReLU"));
        assert!(s.contains("TOTAL"));
        assert!(s.contains("288")); // conv MACs from the sibling test
    }

    #[test]
    fn conv_layer_count_counts_both_variants() {
        let mut g = Graph::new();
        let x = g.input();
        let c1 = g.add("c1", tiny_conv(), &[x]).unwrap();
        g.set_output(c1).unwrap();
        assert_eq!(g.conv_layer_count(), 1);
    }

    #[test]
    fn conv_layers_yields_ids_and_names_in_topo_order() {
        let mut g = Graph::new();
        let x = g.input();
        let c1 = g.add("stem", tiny_conv(), &[x]).unwrap();
        let r = g.add("relu", Arc::new(ReLU::new()), &[c1]).unwrap();
        let c2 = g.add("head", tiny_conv(), &[r]).unwrap();
        g.set_output(c2).unwrap();
        let convs: Vec<(NodeId, String)> = g
            .conv_layers()
            .map(|(id, name)| (id, name.to_owned()))
            .collect();
        assert_eq!(convs.len(), 2);
        assert_eq!(convs[0].1, "stem");
        assert_eq!(convs[1].1, "head");
        assert!(convs[0].0.index() < convs[1].0.index());
        assert_eq!(g.node_name(convs[1].0), Some("head"));
        assert_eq!(g.node_name(NodeId(99)), None);
    }
}
