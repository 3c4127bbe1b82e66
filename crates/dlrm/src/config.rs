//! The Table I model zoo and MLP shape descriptions.

use serde::{Deserialize, Serialize};

/// A fully connected stack described by its layer widths, e.g.
/// `256-128-128`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MlpShape(pub Vec<u32>);

impl MlpShape {
    /// Parses a `"256-128-128"`-style shape string.
    ///
    /// # Panics
    ///
    /// Panics if the string contains a non-numeric segment.
    pub fn parse(s: &str) -> Self {
        MlpShape(
            s.split('-')
                .map(|seg| seg.parse().expect("MLP shape segment must be numeric"))
                .collect(),
        )
    }

    /// Multiply-accumulate FLOPs for one sample through the stack
    /// (2 × in × out per layer transition, counting the input width as the
    /// first entry).
    pub fn flops_per_sample(&self, input_width: u32) -> u64 {
        let mut flops = 0u64;
        let mut prev = input_width as u64;
        for &w in &self.0 {
            flops += 2 * prev * w as u64;
            prev = w as u64;
        }
        flops
    }
}

/// One DLRM configuration from Table I.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Model name ("RMC1" … "RMC4").
    pub name: String,
    /// Embeddings (rows) per table.
    pub emb_num: u64,
    /// Embedding dimension in f32 elements (row = 4 × this in bytes).
    pub emb_dim: u32,
    /// Number of embedding tables.
    pub n_tables: u32,
    /// Average lookups per table per sample (bag size; the evaluation's
    /// "8 per batch" default, §VI-C).
    pub bag_size: u32,
    /// Bottom MLP widths.
    pub bottom_mlp: MlpShape,
    /// Top MLP widths.
    pub top_mlp: MlpShape,
    /// Dense-feature input width feeding the bottom MLP.
    pub dense_features: u32,
}

impl ModelConfig {
    /// RMC1: 16384 × 64, bottom 256-128-128, top 128-64-1.
    pub fn rmc1() -> Self {
        ModelConfig {
            name: "RMC1".into(),
            emb_num: 16_384,
            emb_dim: 64,
            n_tables: 8,
            bag_size: 8,
            bottom_mlp: MlpShape::parse("256-128-128"),
            top_mlp: MlpShape::parse("128-64-1"),
            dense_features: 256,
        }
    }

    /// RMC2: 131072 × 64, bottom 1024-512-128, top 384-192-1.
    pub fn rmc2() -> Self {
        ModelConfig {
            name: "RMC2".into(),
            emb_num: 131_072,
            emb_dim: 64,
            n_tables: 8,
            bag_size: 8,
            bottom_mlp: MlpShape::parse("1024-512-128"),
            top_mlp: MlpShape::parse("384-192-1"),
            dense_features: 1024,
        }
    }

    /// RMC3: 1048576 × 64, bottom 2048-1024-256, top 512-256-1.
    pub fn rmc3() -> Self {
        ModelConfig {
            name: "RMC3".into(),
            emb_num: 1_048_576,
            emb_dim: 64,
            n_tables: 8,
            bag_size: 8,
            bottom_mlp: MlpShape::parse("2048-1024-256"),
            top_mlp: MlpShape::parse("512-256-1"),
            dense_features: 2048,
        }
    }

    /// RMC4: 1048576 × 128, bottom 2048-2048-256, top 768-384-1.
    pub fn rmc4() -> Self {
        ModelConfig {
            name: "RMC4".into(),
            emb_num: 1_048_576,
            emb_dim: 128,
            n_tables: 8,
            bag_size: 8,
            bottom_mlp: MlpShape::parse("2048-2048-256"),
            top_mlp: MlpShape::parse("768-384-1"),
            dense_features: 2048,
        }
    }

    /// All four Table I models in order.
    pub fn all() -> Vec<ModelConfig> {
        vec![Self::rmc1(), Self::rmc2(), Self::rmc3(), Self::rmc4()]
    }

    /// Looks up a Table I model by name (case-insensitive), so harnesses
    /// can treat the model as a sweepable string parameter.
    pub fn by_name(name: &str) -> Option<ModelConfig> {
        Self::all()
            .into_iter()
            .find(|m| m.name.eq_ignore_ascii_case(name))
    }

    /// Bytes of one embedding row (f32 elements).
    pub fn row_bytes(&self) -> u64 {
        4 * self.emb_dim as u64
    }

    /// Total embedding footprint across all tables, in bytes.
    pub fn embedding_bytes(&self) -> u64 {
        self.emb_num * self.row_bytes() * self.n_tables as u64
    }

    /// Returns a copy with `emb_num` divided by `factor` (minimum 1 row),
    /// used to scale simulations down while preserving Table I ratios.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is zero.
    pub fn scaled_down(&self, factor: u64) -> ModelConfig {
        assert!(factor > 0, "scale factor must be positive");
        ModelConfig {
            emb_num: (self.emb_num / factor).max(1),
            ..self.clone()
        }
    }

    /// Per-sample SLS bytes touched: tables × bag × row.
    pub fn sls_bytes_per_sample(&self) -> u64 {
        self.n_tables as u64 * self.bag_size as u64 * self.row_bytes()
    }

    /// Per-sample dense FLOPs (bottom MLP + interaction + top MLP).
    pub fn dense_flops_per_sample(&self) -> u64 {
        let bottom = self.bottom_mlp.flops_per_sample(self.dense_features);
        // Feature interaction: pairwise dots between the bottom output and
        // every table's pooled embedding.
        let n_feat = self.n_tables as u64 + 1;
        let pairs = n_feat * (n_feat - 1) / 2;
        let interaction = pairs * 2 * self.emb_dim as u64;
        let top_in = self.top_mlp.0[0];
        let top = self.top_mlp.flops_per_sample(top_in);
        bottom + interaction + top
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_parameters_match_paper() {
        let models = ModelConfig::all();
        assert_eq!(models[0].emb_num, 16_384);
        assert_eq!(models[1].emb_num, 131_072);
        assert_eq!(models[2].emb_num, 1_048_576);
        assert_eq!(models[3].emb_num, 1_048_576);
        assert_eq!(models[3].emb_dim, 128);
        assert_eq!(models[0].bottom_mlp, MlpShape::parse("256-128-128"));
        assert_eq!(models[3].top_mlp, MlpShape::parse("768-384-1"));
    }

    #[test]
    fn model_sizes_are_strictly_increasing() {
        let m = ModelConfig::all();
        for w in m.windows(2) {
            assert!(w[1].embedding_bytes() > w[0].embedding_bytes());
        }
    }

    #[test]
    fn mlp_flops_count_both_directions_of_a_layer() {
        let shape = MlpShape::parse("4-2");
        // 2×(8×4) + 2×(4×2) = 64 + 16 = 80.
        assert_eq!(shape.flops_per_sample(8), 80);
    }

    #[test]
    #[should_panic(expected = "numeric")]
    fn bad_shape_string_panics() {
        let _ = MlpShape::parse("128-abc");
    }

    #[test]
    fn scaled_down_preserves_everything_else() {
        let m = ModelConfig::rmc3().scaled_down(1024);
        assert_eq!(m.emb_num, 1024);
        assert_eq!(m.emb_dim, 64);
        assert_eq!(m.name, "RMC3");
        // Never scales to zero rows.
        assert_eq!(ModelConfig::rmc1().scaled_down(u64::MAX).emb_num, 1);
    }

    #[test]
    fn sls_bytes_scale_with_bag_and_dim() {
        let m = ModelConfig::rmc1();
        assert_eq!(m.sls_bytes_per_sample(), 8 * 8 * 256);
        let m4 = ModelConfig::rmc4();
        assert_eq!(m4.row_bytes(), 512);
    }

    #[test]
    fn dense_flops_positive_and_grow_with_model() {
        let f1 = ModelConfig::rmc1().dense_flops_per_sample();
        let f4 = ModelConfig::rmc4().dense_flops_per_sample();
        assert!(f1 > 0);
        assert!(f4 > f1);
    }
}
