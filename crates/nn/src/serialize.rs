//! Binary graph serialization for the on-disk artifact format.
//!
//! [`encode_graph`] flattens a [`Graph`] — nodes, wiring, and bound f32
//! parameters — into one little-endian chunk payload; [`decode_graph`]
//! parses it back. The encoding is **canonical**: parameters are written
//! in ascending [`ValueId`] order and floats as IEEE-754 bit patterns, so
//! encoding the same graph twice yields the same bytes (the artifact
//! byte-determinism tests rely on this) and a decode→encode round trip is
//! byte-identical.
//!
//! Operator discriminants are the `Op` variants' declaration order
//! (`Conv2d` = 0 … `CausalMask` = 24); adding a variant appends a new
//! discriminant and is a container-version bump. The decoder validates
//! the wire format only (bounds, counts, discriminants); callers run
//! [`Graph::validate_structure`] on the result, exactly as for a built
//! graph.

use crate::graph::{Graph, Node, Op, ValueId};
use ptq_artifact::{ArtifactError, ByteReader, ByteWriter};
use ptq_tensor::ops::Conv2dParams;
use ptq_tensor::{check_shape, Tensor};
use std::collections::HashMap;

fn put_op(w: &mut ByteWriter, op: &Op) {
    match op {
        Op::Conv2d {
            weight,
            bias,
            params,
            depthwise,
        } => {
            w.put_u8(0);
            w.put_usize(*weight);
            w.put_option(*bias, ByteWriter::put_usize);
            w.put_usize(params.stride);
            w.put_usize(params.padding);
            w.put_bool(*depthwise);
        }
        Op::Linear { weight, bias } => {
            w.put_u8(1);
            w.put_usize(*weight);
            w.put_option(*bias, ByteWriter::put_usize);
        }
        Op::MatMul => w.put_u8(2),
        Op::BatchMatMul => w.put_u8(3),
        Op::Embedding { table } => {
            w.put_u8(4);
            w.put_usize(*table);
        }
        Op::BatchNorm {
            gamma,
            beta,
            mean,
            var,
            eps,
        } => {
            w.put_u8(5);
            w.put_usize(*gamma);
            w.put_usize(*beta);
            w.put_usize(*mean);
            w.put_usize(*var);
            w.put_f32(*eps);
        }
        Op::LayerNorm { gamma, beta, eps } => {
            w.put_u8(6);
            w.put_usize(*gamma);
            w.put_usize(*beta);
            w.put_f32(*eps);
        }
        Op::Add => w.put_u8(7),
        Op::Mul => w.put_u8(8),
        Op::AddParam { param } => {
            w.put_u8(9);
            w.put_usize(*param);
        }
        Op::Relu => w.put_u8(10),
        Op::Gelu => w.put_u8(11),
        Op::Silu => w.put_u8(12),
        Op::Sigmoid => w.put_u8(13),
        Op::Tanh => w.put_u8(14),
        Op::Softmax => w.put_u8(15),
        Op::MaxPool { k } => {
            w.put_u8(16);
            w.put_usize(*k);
        }
        Op::AvgPool { k } => {
            w.put_u8(17);
            w.put_usize(*k);
        }
        Op::GlobalAvgPool => w.put_u8(18),
        Op::MeanRows => w.put_u8(19),
        Op::Reshape(shape) => {
            w.put_u8(20);
            w.put_usize_slice(shape);
        }
        Op::Permute(perm) => {
            w.put_u8(21);
            w.put_usize_slice(perm);
        }
        Op::Scale(s) => {
            w.put_u8(22);
            w.put_f32(*s);
        }
        Op::Upsample2x => w.put_u8(23),
        Op::CausalMask => w.put_u8(24),
    }
}

fn get_op(r: &mut ByteReader<'_>) -> Result<Op, ArtifactError> {
    let disc = r.get_u8("op discriminant")?;
    Ok(match disc {
        0 => Op::Conv2d {
            weight: r.get_usize("conv2d weight")?,
            bias: r.get_option("conv2d bias", ByteReader::get_usize)?,
            params: Conv2dParams {
                stride: r.get_usize("conv2d stride")?,
                padding: r.get_usize("conv2d padding")?,
            },
            depthwise: r.get_bool("conv2d depthwise")?,
        },
        1 => Op::Linear {
            weight: r.get_usize("linear weight")?,
            bias: r.get_option("linear bias", ByteReader::get_usize)?,
        },
        2 => Op::MatMul,
        3 => Op::BatchMatMul,
        4 => Op::Embedding {
            table: r.get_usize("embedding table")?,
        },
        5 => Op::BatchNorm {
            gamma: r.get_usize("batchnorm gamma")?,
            beta: r.get_usize("batchnorm beta")?,
            mean: r.get_usize("batchnorm mean")?,
            var: r.get_usize("batchnorm var")?,
            eps: r.get_f32("batchnorm eps")?,
        },
        6 => Op::LayerNorm {
            gamma: r.get_usize("layernorm gamma")?,
            beta: r.get_usize("layernorm beta")?,
            eps: r.get_f32("layernorm eps")?,
        },
        7 => Op::Add,
        8 => Op::Mul,
        9 => Op::AddParam {
            param: r.get_usize("addparam param")?,
        },
        10 => Op::Relu,
        11 => Op::Gelu,
        12 => Op::Silu,
        13 => Op::Sigmoid,
        14 => Op::Tanh,
        15 => Op::Softmax,
        16 => Op::MaxPool {
            k: r.get_usize("maxpool k")?,
        },
        17 => Op::AvgPool {
            k: r.get_usize("avgpool k")?,
        },
        18 => Op::GlobalAvgPool,
        19 => Op::MeanRows,
        20 => Op::Reshape(r.get_usize_vec("reshape shape")?),
        21 => Op::Permute(r.get_usize_vec("permute perm")?),
        22 => Op::Scale(r.get_f32("scale factor")?),
        23 => Op::Upsample2x,
        24 => Op::CausalMask,
        other => {
            return Err(ArtifactError::Decode {
                detail: format!("unknown op discriminant {other}"),
            })
        }
    })
}

/// Serialize a graph (nodes, wiring, bound f32 parameters) into one
/// canonical little-endian payload.
pub fn encode_graph(g: &Graph) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_usize(g.nodes().len());
    for node in g.nodes() {
        w.put_usize(node.id);
        w.put_str(&node.name);
        put_op(&mut w, &node.op);
        w.put_usize_slice(&node.inputs);
        w.put_usize(node.output);
    }
    w.put_usize_slice(g.input_ids());
    w.put_usize_slice(g.output_ids());
    w.put_usize(g.n_values());
    let mut params: Vec<(ValueId, &Tensor)> = g.params().collect();
    params.sort_by_key(|(id, _)| *id);
    w.put_usize(params.len());
    for (id, t) in params {
        w.put_usize(id);
        w.put_usize_slice(t.shape());
        w.put_f32_slice(t.data());
    }
    w.finish()
}

/// Parse a payload written by [`encode_graph`].
///
/// Validates the wire format (bounds, counts, discriminants, tensor
/// shape/length agreement); run [`Graph::validate_structure`] on the
/// result for the semantic checks a freshly built graph gets.
///
/// # Errors
///
/// [`ArtifactError::Truncated`] / [`ArtifactError::Decode`] on any
/// malformed payload — never a panic.
pub fn decode_graph(payload: &[u8]) -> Result<Graph, ArtifactError> {
    let mut r = ByteReader::new(payload);
    let n_nodes = r.get_count("node count")?;
    let mut nodes = Vec::with_capacity(n_nodes);
    for _ in 0..n_nodes {
        let id = r.get_usize("node id")?;
        let name = r.get_str("node name")?;
        let op = get_op(&mut r)?;
        let inputs = r.get_usize_vec("node inputs")?;
        let output = r.get_usize("node output")?;
        nodes.push(Node {
            id,
            op,
            inputs,
            output,
            name,
        });
    }
    let inputs = r.get_usize_vec("graph inputs")?;
    let outputs = r.get_usize_vec("graph outputs")?;
    let n_values = r.get_usize("n_values")?;
    let n_params = r.get_count("param count")?;
    let mut params = HashMap::with_capacity(n_params);
    for _ in 0..n_params {
        let id = r.get_usize("param id")?;
        let shape = r.get_usize_vec("param shape")?;
        let data = r.get_f32_vec("param data")?;
        check_shape(data.len(), &shape).map_err(|e| ArtifactError::Decode {
            detail: format!("param {id}: {e}"),
        })?;
        if params.insert(id, Tensor::from_vec(data, &shape)).is_some() {
            return Err(ArtifactError::Decode {
                detail: format!("param {id} appears twice"),
            });
        }
    }
    // Node ids are defined as node-list indices; a payload that violates
    // that would desynchronize every per-node map keyed by NodeId.
    for (i, node) in nodes.iter().enumerate() {
        if node.id != i {
            return Err(ArtifactError::Decode {
                detail: format!("node {i} carries id {}", node.id),
            });
        }
    }
    // Every value is a graph input, a parameter or a node output, and
    // validation sizes per-value tables by `n_values`: a count above what
    // the payload defines, or an id at or past it, is malformed.
    let defined = inputs.len() + params.len() + nodes.len();
    let past_end = nodes.iter().any(|n| {
        let (ids, k) = n.op.param_ids();
        let io = n.inputs.iter().copied().chain([n.output]);
        io.chain(ids.into_iter().take(k)).any(|v| v >= n_values)
    });
    let graph_ids = inputs.iter().chain(&outputs).chain(params.keys());
    if n_values > defined || past_end || graph_ids.copied().any(|v| v >= n_values) {
        let detail =
            format!("n_values {n_values} must exceed every value id, not the {defined} values");
        return Err(ArtifactError::Decode { detail });
    }
    r.expect_end()?;
    Ok(Graph::from_parts(nodes, params, inputs, outputs, n_values))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use ptq_tensor::rng::TensorRng;

    /// A graph exercising every Op variant once.
    fn kitchen_sink() -> Graph {
        let mut rng = TensorRng::seed(77);
        let mut b = GraphBuilder::new();
        let x = b.input();
        let ids = b.input();
        // Conv stack.
        let w = b.param(rng.normal(&[2, 3, 3, 3], 0.0, 0.1));
        let bias = b.param(rng.normal(&[2], 0.0, 0.1));
        let c = b.conv2d(
            x,
            w,
            Some(bias),
            Conv2dParams {
                stride: 1,
                padding: 1,
            },
        );
        let dw = b.param(rng.normal(&[2, 1, 3, 3], 0.0, 0.1));
        let d = b.depthwise_conv2d(
            c,
            dw,
            None,
            Conv2dParams {
                stride: 1,
                padding: 1,
            },
        );
        let g = b.param(rng.normal(&[2], 1.0, 0.01));
        let bt = b.param(rng.normal(&[2], 0.0, 0.01));
        let mn = b.param(rng.normal(&[2], 0.0, 0.01));
        let vr = b.param(rng.normal(&[2], 1.0, 0.01));
        let bn = b.batchnorm(d, g, bt, mn, vr, 1e-5);
        let r = b.relu(bn);
        let mp = b.max_pool(r, 2);
        let ap = b.avg_pool(mp, 2);
        let up = b.upsample2x(ap);
        let gap = b.global_avg_pool(up);
        // Transformer-ish stack off the embedding.
        let table = b.param(rng.normal(&[7, 4], 0.0, 1.0));
        let e = b.embedding(ids, table);
        let pos = b.param(rng.normal(&[1, 4], 0.0, 0.1));
        let ep = b.add_param(e, pos);
        let lg = b.param(rng.normal(&[4], 1.0, 0.01));
        let lb = b.param(rng.normal(&[4], 0.0, 0.01));
        let ln = b.layernorm(ep, lg, lb, 1e-5);
        let lw = b.param(rng.normal(&[4, 4], 0.0, 0.3));
        let lin = b.linear(ln, lw, None);
        let gl = b.gelu(lin);
        let si = b.silu(gl);
        let sg = b.sigmoid(si);
        let th = b.tanh(sg);
        let sc = b.scale(th, 0.5);
        let mm = b.matmul(sc, ln);
        let re = b.reshape(mm, &[1, 3, 4]);
        let pe = b.permute(re, &[0, 2, 1]);
        let bm = b.batch_matmul(pe, re);
        let cm = b.causal_mask(bm);
        let sm = b.softmax(cm);
        let ad = b.add(sm, sm);
        let ml = b.mul(ad, sm);
        let r2 = b.reshape(ml, &[4, 4]);
        let mr = b.mean_rows(r2);
        b.build(vec![gap, mr]).unwrap()
    }

    #[test]
    fn roundtrip_preserves_the_graph_exactly() {
        let g = kitchen_sink();
        let bytes = encode_graph(&g);
        let back = decode_graph(&bytes).unwrap();
        assert_eq!(g, back);
        back.validate_structure().unwrap();
        // Canonical encoding: re-encoding the decoded graph is
        // byte-identical (params are sorted, floats are bit patterns).
        assert_eq!(bytes, encode_graph(&back));
    }

    #[test]
    fn roundtrip_is_bit_exact_on_params() {
        let g = kitchen_sink();
        let back = decode_graph(&encode_graph(&g)).unwrap();
        for (id, t) in g.params() {
            let bt = back.param(id).unwrap();
            assert_eq!(t.shape(), bt.shape());
            for (a, b) in t.data().iter().zip(bt.data()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn truncation_and_corruption_are_typed() {
        let g = kitchen_sink();
        let bytes = encode_graph(&g);
        for cut in [0, 1, 7, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_graph(&bytes[..cut]).is_err(), "cut {cut}");
        }
        // An unknown op discriminant is a decode error.
        let mut w = ByteWriter::new();
        w.put_usize(1);
        w.put_usize(0);
        w.put_str("bad");
        w.put_u8(200); // no such op
        assert!(matches!(
            decode_graph(&w.finish()),
            Err(ArtifactError::Decode { .. })
        ));
    }

    #[test]
    fn param_shape_length_disagreement_is_rejected() {
        let g = kitchen_sink();
        let mut bytes = encode_graph(&g);
        // Append nothing; instead corrupt by re-encoding with a bad param:
        // craft a minimal payload with one param of mismatched size.
        let mut w = ByteWriter::new();
        w.put_usize(0); // no nodes
        w.put_usize_slice(&[]); // inputs
        w.put_usize_slice(&[]); // outputs
        w.put_usize(0); // n_values
        w.put_usize(1); // one param
        w.put_usize(3); // id
        w.put_usize_slice(&[2, 2]); // shape says 4
        w.put_f32_slice(&[1.0, 2.0, 3.0]); // data says 3
        assert!(matches!(
            decode_graph(&w.finish()),
            Err(ArtifactError::Decode { .. })
        ));
        // And trailing garbage after a valid graph is rejected.
        bytes.push(0);
        assert!(decode_graph(&bytes).is_err());
    }
}
