//! ResNet-20 for 32×32 images (He et al., the CIFAR-10 variant the paper
//! evaluates), fully integer.
//!
//! Architecture: a 3×3 stem (`c1-Conv1`), three stages of three basic
//! blocks (16/32/64 channels; stages 2 and 3 downsample with stride 2 and
//! a 1×1 projection shortcut — Figure 15's `r2-ds` / `r3-ds`), global
//! average pooling, and a 10-way classifier (`Seq-b4-Seq`). Layer names
//! match Figure 15 exactly so the per-layer speedup table reads directly
//! off this model.
//!
//! The model is parameterizable (input size, width) so unit tests run a
//! miniature variant while benches run the full network, and it supports
//! an analog-noise forward pass for the §7.5 accuracy experiment.

use super::tensor::{conv2d, fully_connected, global_avg_pool, ConvWeights, Tensor3};
use crate::{Error, Result};
use darth_reram::NoiseRng;

/// Per-conv requantization shift — keeps activations in 8-bit range with
/// the synthetic weight scale below.
const CONV_SHIFT: u32 = 7;

/// A conv layer with its Figure 15 name.
#[derive(Debug, Clone)]
pub struct ConvLayer {
    /// Figure 15 layer name (e.g. `r2-b0-Conv1`).
    pub name: String,
    /// The weights.
    pub weights: ConvWeights,
    /// Stride.
    pub stride: usize,
    /// Padding.
    pub pad: usize,
}

impl ConvLayer {
    /// Output spatial size for a given input size.
    pub fn out_size(&self, in_size: usize) -> usize {
        (in_size + 2 * self.pad - self.weights.kernel()) / self.stride + 1
    }
}

/// Additive analog noise model for the §7.5 experiment: each conv output
/// accumulator receives Gaussian noise whose deviation scales with the
/// square root of the layer's fan-in (independent per-device errors add in
/// variance), quantized at the ADC.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalogNoise {
    /// Per-device relative error (programming + read, in weight units).
    pub sigma_per_device: f64,
    /// ADC least significant bit in accumulator units (0 disables
    /// quantization).
    pub adc_lsb: f64,
}

impl AnalogNoise {
    /// The evaluation noise level: residual error at the *activation*
    /// scale after the §7.5 mitigations the paper incorporates (input
    /// bit-slicing, differential pairs, parasitic compensation). The
    /// per-device programming error largely cancels across a bitline and
    /// the compensation removes the systematic component, leaving a
    /// fraction of one activation LSB.
    pub fn evaluation() -> Self {
        AnalogNoise {
            sigma_per_device: 0.02,
            adc_lsb: 1.0,
        }
    }

    /// Raw, uncompensated noise (the ablation showing why §4.3 matters).
    pub fn uncompensated() -> Self {
        AnalogNoise {
            sigma_per_device: 0.6,
            adc_lsb: 1.0,
        }
    }

    /// No noise (digital reference).
    pub fn none() -> Self {
        AnalogNoise {
            sigma_per_device: 0.0,
            adc_lsb: 0.0,
        }
    }

    fn perturb(&self, acc: i64, fan_in: usize, rng: &mut NoiseRng) -> i64 {
        let mut v = acc as f64;
        if self.sigma_per_device > 0.0 {
            v += rng.gaussian(0.0, self.sigma_per_device * (fan_in as f64).sqrt());
        }
        if self.adc_lsb > 0.0 {
            v = (v / self.adc_lsb).round() * self.adc_lsb;
        }
        v.round() as i64
    }
}

/// The network.
#[derive(Debug, Clone)]
pub struct ResNet {
    input_size: usize,
    stem: ConvLayer,
    blocks: Vec<Block>,
    fc_weights: Vec<Vec<i32>>,
    fc_bias: Vec<i32>,
    classes: usize,
}

/// One basic block, with an optional projection shortcut.
#[derive(Debug, Clone)]
struct Block {
    conv1: ConvLayer,
    conv2: ConvLayer,
    downsample: Option<ConvLayer>,
}

fn synth_weights(
    rng: &mut NoiseRng,
    out_ch: usize,
    in_ch: usize,
    kernel: usize,
) -> Result<ConvWeights> {
    // He-style fan-in scaling in fixed point: the requantizing shift
    // divides by 2^CONV_SHIFT, so a weight deviation of
    // sqrt(2) * 2^CONV_SHIFT / sqrt(fan_in) keeps activation variance
    // roughly constant through ReLU layers.
    let fan_in = (in_ch * kernel * kernel) as f64;
    let sigma = std::f64::consts::SQRT_2 * f64::from(1u32 << CONV_SHIFT) / fan_in.sqrt();
    let count = out_ch * in_ch * kernel * kernel;
    let weights: Vec<i32> = (0..count)
        .map(|_| (rng.gaussian(0.0, sigma).round() as i32).clamp(-63, 63))
        .collect();
    let bias: Vec<i32> = (0..out_ch)
        .map(|_| (rng.gaussian(0.0, 2.0).round() as i32).clamp(-8, 8))
        .collect();
    ConvWeights::new(out_ch, in_ch, kernel, weights, bias)
}

impl ResNet {
    /// Builds ResNet-20 for 32×32×3 inputs with 16/32/64 channels — the
    /// paper's configuration.
    ///
    /// # Errors
    ///
    /// Propagates weight-shape errors (none for valid parameters).
    pub fn resnet20(seed: u64) -> Result<Self> {
        ResNet::new(32, 16, 3, 10, seed)
    }

    /// A miniature variant for fast tests: 8×8 inputs, 4/8/16 channels.
    ///
    /// # Errors
    ///
    /// Propagates weight-shape errors.
    pub fn mini(seed: u64) -> Result<Self> {
        ResNet::new(8, 4, 3, 10, seed)
    }

    /// Builds a ResNet-20-topology network with `base_width` channels in
    /// stage 1 (doubling per stage), `in_channels` image channels and
    /// `classes` outputs, with deterministic synthetic weights from
    /// `seed`.
    ///
    /// # Errors
    ///
    /// Returns an error for degenerate parameters.
    pub fn new(
        input_size: usize,
        base_width: usize,
        in_channels: usize,
        classes: usize,
        seed: u64,
    ) -> Result<Self> {
        ResNet::with_depth(input_size, base_width, in_channels, classes, 3, seed)
    }

    /// Like [`ResNet::new`] with an explicit residual-block count per
    /// stage (depth `6·blocks_per_stage + 2`).
    ///
    /// # Errors
    ///
    /// Returns an error for degenerate parameters.
    pub fn with_depth(
        input_size: usize,
        base_width: usize,
        in_channels: usize,
        classes: usize,
        blocks_per_stage: usize,
        seed: u64,
    ) -> Result<Self> {
        if input_size < 8 || base_width == 0 || classes == 0 {
            return Err(Error::Mapping(
                "input size must be >= 8 with nonzero width/classes".into(),
            ));
        }
        if blocks_per_stage == 0 {
            return Err(Error::Mapping(
                "a residual stage needs at least one block".into(),
            ));
        }
        let mut rng = NoiseRng::seed_from(seed);
        let stem = ConvLayer {
            name: "c1-Conv1".to_owned(),
            weights: synth_weights(&mut rng, base_width, in_channels, 3)?,
            stride: 1,
            pad: 1,
        };
        let mut blocks = Vec::new();
        let widths = [base_width, base_width * 2, base_width * 4];
        let mut in_ch = base_width;
        for (stage, &width) in widths.iter().enumerate() {
            for b in 0..blocks_per_stage {
                let first_of_stage = b == 0;
                let stride = if stage > 0 && first_of_stage { 2 } else { 1 };
                let conv1 = ConvLayer {
                    name: format!("r{}-b{}-Conv1", stage + 1, b),
                    weights: synth_weights(&mut rng, width, in_ch, 3)?,
                    stride,
                    pad: 1,
                };
                let conv2 = ConvLayer {
                    name: format!("r{}-b{}-Conv2", stage + 1, b),
                    weights: synth_weights(&mut rng, width, width, 3)?,
                    stride: 1,
                    pad: 1,
                };
                let downsample = if stride != 1 || in_ch != width {
                    Some(ConvLayer {
                        name: format!("r{}-ds", stage + 1),
                        weights: synth_weights(&mut rng, width, in_ch, 1)?,
                        stride,
                        pad: 0,
                    })
                } else {
                    None
                };
                blocks.push(Block {
                    conv1,
                    conv2,
                    downsample,
                });
                in_ch = width;
            }
        }
        let feat = widths[2];
        let fc_weights: Vec<Vec<i32>> = (0..classes)
            .map(|_| {
                (0..feat)
                    .map(|_| (rng.gaussian(0.0, 8.0).round() as i32).clamp(-32, 32))
                    .collect()
            })
            .collect();
        let fc_bias: Vec<i32> = (0..classes).map(|_| 0).collect();
        Ok(ResNet {
            input_size,
            stem,
            blocks,
            fc_weights,
            fc_bias,
            classes,
        })
    }

    /// Expected input spatial size.
    pub fn input_size(&self) -> usize {
        self.input_size
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// The feature dimension entering the classifier.
    pub fn feature_dim(&self) -> usize {
        self.fc_weights.first().map_or(0, Vec::len)
    }

    /// Replaces the classifier weights (the synthetic trainer's job).
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatch.
    pub fn set_classifier(&mut self, weights: Vec<Vec<i32>>, bias: Vec<i32>) -> Result<()> {
        if weights.len() != self.classes || bias.len() != self.classes {
            return Err(Error::Mapping("classifier shape mismatch".into()));
        }
        let feat = self.feature_dim();
        if weights.iter().any(|row| row.len() != feat) {
            return Err(Error::Mapping("classifier feature dim mismatch".into()));
        }
        self.fc_weights = weights;
        self.fc_bias = bias;
        Ok(())
    }

    /// All conv layers in execution order, with the classifier name last —
    /// Figure 15's 22 rows.
    pub fn layer_names(&self) -> Vec<String> {
        let mut names = vec![self.stem.name.clone()];
        for block in &self.blocks {
            names.push(block.conv1.name.clone());
            names.push(block.conv2.name.clone());
            if let Some(ds) = &block.downsample {
                names.push(ds.name.clone());
            }
        }
        names.push("Seq-b4-Seq".to_owned());
        names
    }

    /// Conv layers with their input spatial size (drives the workload
    /// trace).
    pub fn conv_plan(&self) -> Vec<(ConvLayer, usize)> {
        let mut plan = Vec::new();
        let mut size = self.input_size;
        plan.push((self.stem.clone(), size));
        for block in &self.blocks {
            let in_size = size;
            plan.push((block.conv1.clone(), in_size));
            let mid = block.conv1.out_size(in_size);
            plan.push((block.conv2.clone(), mid));
            if let Some(ds) = &block.downsample {
                plan.push((ds.clone(), in_size));
            }
            size = mid;
        }
        plan
    }

    /// The penultimate feature vector (global-pooled), optionally under
    /// analog noise.
    ///
    /// # Errors
    ///
    /// Propagates shape errors (none for a well-formed network).
    pub fn features(
        &self,
        image: &Tensor3,
        noise: &AnalogNoise,
        rng: &mut NoiseRng,
    ) -> Result<Vec<i32>> {
        if image.height() != self.input_size || image.width() != self.input_size {
            return Err(Error::Mapping(format!(
                "expected {0}x{0} input, got {1}x{2}",
                self.input_size,
                image.height(),
                image.width()
            )));
        }
        let mut x = self.conv_forward(&self.stem, image, noise, rng)?;
        x.relu();
        for block in &self.blocks {
            let identity = if let Some(ds) = &block.downsample {
                self.conv_forward(ds, &x, noise, rng)?
            } else {
                x.clone()
            };
            let mut y = self.conv_forward(&block.conv1, &x, noise, rng)?;
            y.relu();
            let mut y = self.conv_forward(&block.conv2, &y, noise, rng)?;
            y.add(&identity)?;
            y.clamp_activation();
            y.relu();
            x = y;
        }
        Ok(global_avg_pool(&x))
    }

    /// Full inference: logits for one image.
    ///
    /// # Errors
    ///
    /// Propagates shape errors.
    pub fn logits(
        &self,
        image: &Tensor3,
        noise: &AnalogNoise,
        rng: &mut NoiseRng,
    ) -> Result<Vec<i64>> {
        let features = self.features(image, noise, rng)?;
        fully_connected(&features, &self.fc_weights, &self.fc_bias)
    }

    /// Predicted class for one image.
    ///
    /// # Errors
    ///
    /// Propagates shape errors.
    pub fn predict(
        &self,
        image: &Tensor3,
        noise: &AnalogNoise,
        rng: &mut NoiseRng,
    ) -> Result<usize> {
        let logits = self.logits(image, noise, rng)?;
        Ok(logits
            .iter()
            .enumerate()
            .max_by_key(|&(_, v)| *v)
            .map(|(i, _)| i)
            .unwrap_or(0))
    }

    fn conv_forward(
        &self,
        layer: &ConvLayer,
        input: &Tensor3,
        noise: &AnalogNoise,
        rng: &mut NoiseRng,
    ) -> Result<Tensor3> {
        let mut out = conv2d(input, &layer.weights, layer.stride, layer.pad, CONV_SHIFT)?;
        if noise.sigma_per_device > 0.0 || noise.adc_lsb > 0.0 {
            let (fan_in, _) = layer.weights.mvm_shape();
            for c in 0..out.channels() {
                for y in 0..out.height() {
                    for x in 0..out.width() {
                        let clean = i64::from(out.get(c, y, x));
                        let noisy = noise.perturb(clean, fan_in, rng);
                        out.set(
                            c,
                            y,
                            x,
                            (noisy as i32).clamp(super::tensor::ACT_MIN, super::tensor::ACT_MAX),
                        );
                    }
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image(size: usize, seed: u64) -> Tensor3 {
        let mut rng = NoiseRng::seed_from(seed);
        let data: Vec<i32> = (0..3 * size * size)
            .map(|_| (rng.gaussian(0.0, 30.0).round() as i32).clamp(-128, 127))
            .collect();
        Tensor3::from_data(3, size, size, data).expect("valid")
    }

    #[test]
    fn resnet20_has_figure15_layers() {
        let net = ResNet::resnet20(1).expect("builds");
        let names = net.layer_names();
        assert_eq!(names.len(), 22, "{names:?}");
        assert_eq!(names[0], "c1-Conv1");
        assert!(names.contains(&"r2-ds".to_owned()));
        assert!(names.contains(&"r3-ds".to_owned()));
        assert!(!names.contains(&"r1-ds".to_owned()));
        assert_eq!(names.last().map(String::as_str), Some("Seq-b4-Seq"));
    }

    #[test]
    fn conv_plan_shapes_shrink() {
        let net = ResNet::resnet20(1).expect("builds");
        let plan = net.conv_plan();
        assert_eq!(plan[0].1, 32);
        let last = plan.last().expect("nonempty");
        assert_eq!(last.1, 8); // final stage spatial size
    }

    #[test]
    fn mini_forward_is_deterministic() {
        let net = ResNet::mini(7).expect("builds");
        let img = image(8, 3);
        let mut rng1 = NoiseRng::seed_from(0);
        let mut rng2 = NoiseRng::seed_from(0);
        let a = net
            .logits(&img, &AnalogNoise::none(), &mut rng1)
            .expect("runs");
        let b = net
            .logits(&img, &AnalogNoise::none(), &mut rng2)
            .expect("runs");
        assert_eq!(a, b);
        assert_eq!(a.len(), 10);
    }

    #[test]
    fn feature_dim_matches_stage3_width() {
        let net = ResNet::mini(7).expect("builds");
        assert_eq!(net.feature_dim(), 16); // 4 * 4
        let full = ResNet::resnet20(7).expect("builds");
        assert_eq!(full.feature_dim(), 64);
    }

    #[test]
    fn wrong_input_size_is_rejected() {
        let net = ResNet::mini(7).expect("builds");
        let img = image(16, 3);
        assert!(net
            .logits(&img, &AnalogNoise::none(), &mut NoiseRng::seed_from(0))
            .is_err());
    }

    #[test]
    fn noise_perturbs_but_stays_bounded() {
        let net = ResNet::mini(7).expect("builds");
        let img = image(8, 5);
        let mut rng = NoiseRng::seed_from(9);
        let clean = net
            .features(&img, &AnalogNoise::none(), &mut rng)
            .expect("runs");
        let mut rng = NoiseRng::seed_from(9);
        let noisy = net
            .features(&img, &AnalogNoise::evaluation(), &mut rng)
            .expect("runs");
        assert_eq!(clean.len(), noisy.len());
        // perturbed but in the same ballpark
        let diff: i64 = clean
            .iter()
            .zip(&noisy)
            .map(|(&a, &b)| i64::from(a - b).abs())
            .sum();
        assert!(diff > 0, "noise had no effect");
        let magnitude: i64 = clean.iter().map(|&v| i64::from(v).abs()).sum();
        assert!(diff < magnitude.max(100) * 3, "noise overwhelmed signal");
    }

    #[test]
    fn classifier_replacement_validates() {
        let mut net = ResNet::mini(7).expect("builds");
        let feat = net.feature_dim();
        assert!(net
            .set_classifier(vec![vec![0; feat]; 10], vec![0; 10])
            .is_ok());
        assert!(net
            .set_classifier(vec![vec![0; feat]; 9], vec![0; 9])
            .is_err());
        assert!(net
            .set_classifier(vec![vec![0; feat + 1]; 10], vec![0; 10])
            .is_err());
    }

    #[test]
    fn predict_returns_valid_class() {
        let net = ResNet::mini(11).expect("builds");
        let img = image(8, 1);
        let class = net
            .predict(&img, &AnalogNoise::none(), &mut NoiseRng::seed_from(0))
            .expect("runs");
        assert!(class < 10);
    }
}
