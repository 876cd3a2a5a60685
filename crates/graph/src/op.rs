//! Operator definitions.
//!
//! Operators follow ONNX naming and semantics closely enough that a graph in
//! this IR corresponds one-to-one to an ONNX model of the kind the Proteus
//! paper feeds to ONNXRuntime/Hidet. Attributes carry the hyper-parameters
//! (channel counts, kernel shapes, strides) that the paper's SMT-based
//! operator population step must assign consistently.

use crate::shape::Shape;
use std::fmt;

/// Elementwise activation functions.
///
/// These appear both as standalone [`Op::Activation`] nodes and as fused
/// epilogues on [`ConvAttrs`]/[`GemmAttrs`] after optimizer rewrites.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Activation {
    /// `max(x, 0)`.
    Relu,
    /// `min(max(x, 0), 6)` — used by MobileNet-family models.
    Relu6,
    /// `1 / (1 + e^{-x})`.
    Sigmoid,
    /// Piecewise-linear sigmoid approximation used by e.g. squeeze-excite
    /// blocks in efficient CNNs.
    HardSigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// Gaussian error linear unit (tanh approximation), used by BERT-family
    /// models.
    Gelu,
    /// `x * sigmoid(x)`.
    Silu,
}

impl Activation {
    /// All activation functions, in a stable order.
    pub const ALL: [Activation; 7] = [
        Activation::Relu,
        Activation::Relu6,
        Activation::Sigmoid,
        Activation::HardSigmoid,
        Activation::Tanh,
        Activation::Gelu,
        Activation::Silu,
    ];

    /// Applies the activation to a single value.
    pub fn apply(self, x: f32) -> f32 {
        match self {
            Activation::Relu => x.max(0.0),
            Activation::Relu6 => x.clamp(0.0, 6.0),
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::HardSigmoid => (0.2 * x + 0.5).clamp(0.0, 1.0),
            Activation::Tanh => x.tanh(),
            Activation::Gelu => {
                let c = (2.0f32 / std::f32::consts::PI).sqrt();
                0.5 * x * (1.0 + (c * (x + 0.044715 * x * x * x)).tanh())
            }
            Activation::Silu => x / (1.0 + (-x).exp()),
        }
    }
}

impl fmt::Display for Activation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Convolution algorithm selected by the optimizer.
///
/// `Winograd` models an F(2x2, 3x3) Winograd rewrite: it reduces
/// multiply-accumulate work by ~2.25x for 3x3/stride-1 convolutions but pays
/// a per-tile transform overhead that dominates at small channel counts.
/// This mirrors the "typically beneficial but occasionally harmful"
/// optimizations discussed in the paper's NAS case study (§6.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ConvAlgo {
    /// Direct (im2col-style) convolution.
    #[default]
    Direct,
    /// F(2x2, 3x3) Winograd-transformed convolution.
    Winograd,
}

/// Attributes of a 2-D convolution.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ConvAttrs {
    /// Input channel count.
    pub in_channels: usize,
    /// Output channel count.
    pub out_channels: usize,
    /// Square kernel size.
    pub kernel: usize,
    /// Stride (same in both spatial dimensions).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub padding: usize,
    /// Grouped-convolution group count (`in_channels` for depthwise).
    pub groups: usize,
    /// Whether a bias vector is added to the output.
    pub has_bias: bool,
    /// Algorithm selected by the optimizer.
    pub algo: ConvAlgo,
    /// Fused activation epilogue (set by optimizer rewrites).
    pub fused_act: Option<Activation>,
    /// When true the node takes a second input that is added to the
    /// convolution output before the activation (fused residual add).
    pub fused_add: bool,
}

impl ConvAttrs {
    /// A plain convolution with stride 1, no padding, no groups, and a bias.
    pub fn new(in_channels: usize, out_channels: usize, kernel: usize) -> Self {
        ConvAttrs {
            in_channels,
            out_channels,
            kernel,
            stride: 1,
            padding: 0,
            groups: 1,
            has_bias: true,
            algo: ConvAlgo::Direct,
            fused_act: None,
            fused_add: false,
        }
    }

    /// Builder: sets the stride.
    pub fn stride(mut self, stride: usize) -> Self {
        self.stride = stride;
        self
    }

    /// Builder: sets the zero padding.
    pub fn padding(mut self, padding: usize) -> Self {
        self.padding = padding;
        self
    }

    /// Builder: sets the group count.
    pub fn groups(mut self, groups: usize) -> Self {
        self.groups = groups;
        self
    }

    /// Builder: enables or disables the bias term.
    pub fn bias(mut self, has_bias: bool) -> Self {
        self.has_bias = has_bias;
        self
    }

    /// A depthwise convolution (`groups == in_channels == out_channels`).
    pub fn depthwise(channels: usize, kernel: usize) -> Self {
        ConvAttrs::new(channels, channels, kernel).groups(channels)
    }

    /// Number of inputs this convolution consumes (1, or 2 with a fused
    /// residual add).
    pub fn arity(&self) -> usize {
        if self.fused_add {
            2
        } else {
            1
        }
    }
}

/// Attributes of a fully-connected (`Gemm`) layer: `y = act(x W^T + b)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GemmAttrs {
    /// Input feature dimension.
    pub in_features: usize,
    /// Output feature dimension.
    pub out_features: usize,
    /// Whether a bias vector is added to the output.
    pub has_bias: bool,
    /// Fused activation epilogue (set by optimizer rewrites).
    pub fused_act: Option<Activation>,
}

impl GemmAttrs {
    /// A fully-connected layer with a bias and no fused activation.
    pub fn new(in_features: usize, out_features: usize) -> Self {
        GemmAttrs {
            in_features,
            out_features,
            has_bias: true,
            fused_act: None,
        }
    }
}

/// Attributes of max/average pooling.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PoolAttrs {
    /// Square pooling window size.
    pub kernel: usize,
    /// Stride (same in both spatial dimensions).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub padding: usize,
}

impl PoolAttrs {
    /// Pooling attributes from window/stride/padding.
    pub fn new(kernel: usize, stride: usize, padding: usize) -> Self {
        PoolAttrs {
            kernel,
            stride,
            padding,
        }
    }
}

/// Attributes of (inference-mode) batch normalization.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BatchNormAttrs {
    /// Channel count the per-channel statistics are stored for.
    pub channels: usize,
}

/// Attributes of layer normalization over the last dimension.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LayerNormAttrs {
    /// Size of the normalized (last) dimension.
    pub dim: usize,
}

/// A deep-learning operator.
///
/// Nodes of a [`crate::Graph`] each carry one `Op`. Parameter tensors
/// (weights, biases, BN statistics, embedding tables) are *not* stored inline
/// — they live in a [`crate::TensorMap`] keyed by node id, mirroring how ONNX
/// separates initializers from graph structure.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Op {
    /// Graph input placeholder with a fixed shape.
    Input {
        /// The input tensor's shape.
        shape: Shape,
    },
    /// Constant tensor; its value lives in the weight store.
    Constant {
        /// The constant tensor's shape.
        shape: Shape,
    },
    /// 2-D convolution.
    Conv(ConvAttrs),
    /// Fully-connected layer `y = act(x W^T + b)`.
    Gemm(GemmAttrs),
    /// Batched matrix multiplication of two activation tensors (attention).
    MatMul,
    /// Batched `a · bᵀ` (transposed on the last two dims) — produced by the
    /// optimizer's FusedMatMul rewrite of `MatMul(a, Transpose(b))`.
    MatMulT,
    /// Inference-mode batch normalization.
    BatchNorm(BatchNormAttrs),
    /// Layer normalization over the last dimension.
    LayerNorm(LayerNormAttrs),
    /// Fused `LayerNorm(a + b)` (ONNXRuntime's SkipLayerNormalization).
    SkipLayerNorm(LayerNormAttrs),
    /// Standalone elementwise activation.
    Activation(Activation),
    /// Softmax along `axis` (negative values count from the back).
    Softmax {
        /// The normalized axis.
        axis: isize,
    },
    /// Elementwise addition.
    Add,
    /// Elementwise subtraction.
    Sub,
    /// Elementwise multiplication.
    Mul,
    /// Elementwise division.
    Div,
    /// Fused elementwise add followed by an activation (optimizer output).
    AddAct(Activation),
    /// 2-D max pooling.
    MaxPool(PoolAttrs),
    /// 2-D average pooling.
    AveragePool(PoolAttrs),
    /// Spatial mean over each channel (`NCHW -> NC11`).
    GlobalAveragePool,
    /// Concatenation along `axis`.
    Concat {
        /// The concatenated axis.
        axis: usize,
    },
    /// Flattens all dimensions after the batch dimension.
    Flatten,
    /// Reshape to a fixed target shape.
    Reshape {
        /// The target shape.
        shape: Shape,
    },
    /// Dimension permutation.
    Transpose {
        /// `perm[i]` is the source axis of output axis `i`.
        perm: Vec<usize>,
    },
    /// Pass-through (rewrites eliminate it).
    Identity,
    /// Dropout — an inference no-op carrying its training keep rate, kept
    /// in the IR so the DropoutElimination rewrite has something to do.
    Dropout {
        /// Drop probability in percent (integral so `Op` stays `Eq`).
        p: u32,
    },
    /// Mean reduction over `axes`.
    ReduceMean {
        /// The reduced axes.
        axes: Vec<usize>,
        /// Whether reduced axes are kept as size-1 dimensions.
        keepdims: bool,
    },
    /// Embedding lookup: maps integer token ids to rows of a `[vocab, dim]`
    /// table held in the weight store.
    Gather {
        /// Vocabulary (table row) count.
        vocab: usize,
        /// Embedding dimension.
        dim: usize,
    },
}

impl Op {
    /// The number of graph inputs this operator consumes, if fixed.
    /// `None` means variadic (>= 2), which only `Concat` uses.
    pub fn arity(&self) -> Option<usize> {
        match self {
            Op::Input { .. } | Op::Constant { .. } => Some(0),
            Op::Conv(c) => Some(c.arity()),
            Op::Gemm(_) => Some(1),
            Op::MatMul | Op::MatMulT => Some(2),
            Op::SkipLayerNorm(_) => Some(2),
            Op::BatchNorm(_) | Op::LayerNorm(_) => Some(1),
            Op::Activation(_) | Op::Softmax { .. } => Some(1),
            Op::Add | Op::Sub | Op::Mul | Op::Div => Some(2),
            Op::AddAct(_) => Some(2),
            Op::MaxPool(_) | Op::AveragePool(_) | Op::GlobalAveragePool => Some(1),
            Op::Concat { .. } => None,
            Op::Flatten
            | Op::Reshape { .. }
            | Op::Transpose { .. }
            | Op::Identity
            | Op::Dropout { .. }
            | Op::ReduceMean { .. }
            | Op::Gather { .. } => Some(1),
        }
    }

    /// Returns the compact opcode used by the adversary, the bigram
    /// likelihood model, and the CSP operator domain.
    pub fn opcode(&self) -> OpCode {
        match self {
            Op::Input { .. } => OpCode::Input,
            Op::Constant { .. } => OpCode::Constant,
            Op::Conv(_) => OpCode::Conv,
            Op::Gemm(_) => OpCode::Gemm,
            Op::MatMul => OpCode::MatMul,
            Op::MatMulT => OpCode::MatMulT,
            Op::BatchNorm(_) => OpCode::BatchNorm,
            Op::LayerNorm(_) => OpCode::LayerNorm,
            Op::SkipLayerNorm(_) => OpCode::SkipLayerNorm,
            Op::Activation(a) => match a {
                Activation::Relu => OpCode::Relu,
                Activation::Relu6 => OpCode::Relu6,
                Activation::Sigmoid => OpCode::Sigmoid,
                Activation::HardSigmoid => OpCode::HardSigmoid,
                Activation::Tanh => OpCode::Tanh,
                Activation::Gelu => OpCode::Gelu,
                Activation::Silu => OpCode::Silu,
            },
            Op::Softmax { .. } => OpCode::Softmax,
            Op::Add => OpCode::Add,
            Op::Sub => OpCode::Sub,
            Op::Mul => OpCode::Mul,
            Op::Div => OpCode::Div,
            Op::AddAct(_) => OpCode::AddAct,
            Op::MaxPool(_) => OpCode::MaxPool,
            Op::AveragePool(_) => OpCode::AveragePool,
            Op::GlobalAveragePool => OpCode::GlobalAveragePool,
            Op::Concat { .. } => OpCode::Concat,
            Op::Flatten => OpCode::Flatten,
            Op::Reshape { .. } => OpCode::Reshape,
            Op::Transpose { .. } => OpCode::Transpose,
            Op::Identity => OpCode::Identity,
            Op::Dropout { .. } => OpCode::Dropout,
            Op::ReduceMean { .. } => OpCode::ReduceMean,
            Op::Gather { .. } => OpCode::Gather,
        }
    }

    /// True for operators whose output equals their (single) input
    /// elementwise shape (activations, normalization, dropout, identity).
    pub fn is_elementwise_unary(&self) -> bool {
        matches!(
            self,
            Op::Activation(_)
                | Op::BatchNorm(_)
                | Op::LayerNorm(_)
                | Op::Softmax { .. }
                | Op::Identity
                | Op::Dropout { .. }
        )
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Conv(c) => {
                write!(
                    f,
                    "Conv[{}x{}, {}->{}, s{}",
                    c.kernel, c.kernel, c.in_channels, c.out_channels, c.stride
                )?;
                if c.groups > 1 {
                    write!(f, ", g{}", c.groups)?;
                }
                if let Some(a) = c.fused_act {
                    write!(f, "+{a}")?;
                }
                if c.fused_add {
                    write!(f, "+Add")?;
                }
                write!(f, "]")
            }
            Op::Gemm(g) => {
                write!(f, "Gemm[{}->{}", g.in_features, g.out_features)?;
                if let Some(a) = g.fused_act {
                    write!(f, "+{a}")?;
                }
                write!(f, "]")
            }
            Op::Activation(a) => write!(f, "{a}"),
            Op::AddAct(a) => write!(f, "Add+{a}"),
            other => write!(f, "{:?}", other.opcode()),
        }
    }
}

/// Flat opcode vocabulary.
///
/// This is the "operator information" an adversary observes (paper §4.1.2):
/// node labels of the computational graph. It is also the assignment domain
/// of the SMT-based operator population step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
#[allow(missing_docs)] // each variant names the `Op` (or `Activation`) it abbreviates
pub enum OpCode {
    Input,
    Constant,
    Conv,
    Gemm,
    MatMul,
    MatMulT,
    BatchNorm,
    LayerNorm,
    SkipLayerNorm,
    Relu,
    Relu6,
    Sigmoid,
    HardSigmoid,
    Tanh,
    Gelu,
    Silu,
    Softmax,
    Add,
    Sub,
    Mul,
    Div,
    AddAct,
    MaxPool,
    AveragePool,
    GlobalAveragePool,
    Concat,
    Flatten,
    Reshape,
    Transpose,
    Identity,
    Dropout,
    ReduceMean,
    Gather,
}

impl OpCode {
    /// All opcodes in a stable order; index with [`OpCode::index`].
    pub const ALL: [OpCode; 33] = [
        OpCode::Input,
        OpCode::Constant,
        OpCode::Conv,
        OpCode::Gemm,
        OpCode::MatMul,
        OpCode::MatMulT,
        OpCode::BatchNorm,
        OpCode::LayerNorm,
        OpCode::SkipLayerNorm,
        OpCode::Relu,
        OpCode::Relu6,
        OpCode::Sigmoid,
        OpCode::HardSigmoid,
        OpCode::Tanh,
        OpCode::Gelu,
        OpCode::Silu,
        OpCode::Softmax,
        OpCode::Add,
        OpCode::Sub,
        OpCode::Mul,
        OpCode::Div,
        OpCode::AddAct,
        OpCode::MaxPool,
        OpCode::AveragePool,
        OpCode::GlobalAveragePool,
        OpCode::Concat,
        OpCode::Flatten,
        OpCode::Reshape,
        OpCode::Transpose,
        OpCode::Identity,
        OpCode::Dropout,
        OpCode::ReduceMean,
        OpCode::Gather,
    ];

    /// Number of distinct opcodes.
    pub const COUNT: usize = Self::ALL.len();

    /// The opcodes an [`Op::Activation`] node can carry (one per
    /// [`Activation`] kind) — the anchor set of activation-fusion rules.
    pub const ACTIVATIONS: [OpCode; 7] = [
        OpCode::Relu,
        OpCode::Relu6,
        OpCode::Sigmoid,
        OpCode::HardSigmoid,
        OpCode::Tanh,
        OpCode::Gelu,
        OpCode::Silu,
    ];

    /// Stable dense index of this opcode in `[0, COUNT)`.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Inverse of [`OpCode::index`].
    ///
    /// # Panics
    /// Panics if `idx >= OpCode::COUNT`.
    pub fn from_index(idx: usize) -> OpCode {
        Self::ALL[idx]
    }
}

impl fmt::Display for OpCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opcode_index_roundtrip() {
        for (i, &code) in OpCode::ALL.iter().enumerate() {
            assert_eq!(code.index(), i);
            assert_eq!(OpCode::from_index(i), code);
        }
    }

    #[test]
    fn conv_builder_sets_attrs() {
        let c = ConvAttrs::new(3, 64, 7).stride(2).padding(3).bias(false);
        assert_eq!(c.stride, 2);
        assert_eq!(c.padding, 3);
        assert!(!c.has_bias);
        assert_eq!(c.arity(), 1);
        let mut fused = c.clone();
        fused.fused_add = true;
        assert_eq!(fused.arity(), 2);
    }

    #[test]
    fn depthwise_sets_groups() {
        let c = ConvAttrs::depthwise(32, 3);
        assert_eq!(c.groups, 32);
        assert_eq!(c.in_channels, 32);
        assert_eq!(c.out_channels, 32);
    }

    #[test]
    fn arity_of_common_ops() {
        assert_eq!(Op::Add.arity(), Some(2));
        assert_eq!(Op::MatMul.arity(), Some(2));
        assert_eq!(Op::Identity.arity(), Some(1));
        assert_eq!(Op::Concat { axis: 1 }.arity(), None);
        assert_eq!(
            Op::Input {
                shape: Shape::from([1])
            }
            .arity(),
            Some(0)
        );
    }

    #[test]
    fn activations_are_bounded_where_expected() {
        for x in [-10.0f32, -1.0, 0.0, 1.0, 10.0] {
            let s = Activation::Sigmoid.apply(x);
            assert!((0.0..=1.0).contains(&s));
            let h = Activation::HardSigmoid.apply(x);
            assert!((0.0..=1.0).contains(&h));
            let r6 = Activation::Relu6.apply(x);
            assert!((0.0..=6.0).contains(&r6));
        }
    }

    #[test]
    fn display_is_compact() {
        let op = Op::Conv(ConvAttrs::new(64, 128, 3).stride(2));
        assert_eq!(format!("{op}"), "Conv[3x3, 64->128, s2]");
        assert_eq!(format!("{}", Op::Activation(Activation::Relu)), "Relu");
    }
}
