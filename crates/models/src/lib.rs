//! # ptq-models — the synthetic workload zoo
//!
//! The paper evaluates 75 unique architectures over 200+ tasks drawn from
//! Hugging Face / TorchVision with their pretrained weights and public
//! datasets. None of those assets are available here, so this crate builds
//! the closest synthetic equivalent (see DESIGN.md §1):
//!
//! * **Architectures** — families mirroring the paper's workload list
//!   (plain CNN/VGG, ResNet, MobileNet, EfficientNet, DenseNet, Inception,
//!   ViT, U-Net, detector heads and a conv generator on the CV side; BERT
//!   style encoders with GLUE-style heads, GPT-style decoders, DLRM-style
//!   embedding MLPs and a conv-frontend speech encoder on the NLP side),
//!   built on the `ptq-nn` graph IR with the same quantizable op mix.
//! * **Weights** — seeded draws from the paper's Figure-3 distributions:
//!   zero-mean normals (precision-bound). NLP models additionally carry
//!   amplified LayerNorm gain channels, reproducing the outlier structure
//!   that makes INT8 activation quantization fail on language models.
//! * **Tasks** — synthetic inputs with labels defined by the FP32 model's
//!   own predictions on clean inputs, evaluated on perturbed inputs. The
//!   FP32 baseline is therefore realistically below 100 %, and quantization
//!   degrades accuracy through exactly the mechanism the paper studies:
//!   numeric perturbation of the function near decision margins.
//!
//! [`zoo::build_zoo`] returns the full 75-workload suite; individual
//! builders are exposed for targeted experiments.

pub mod anchor;
pub mod families;
pub mod task;
pub mod workload;
pub mod zoo;

pub use task::{CalibSource, Metric, Transform};
pub use workload::{Workload, WorkloadSpec};
pub use zoo::{build_zoo, build_zoo_limited, ZooFilter};
