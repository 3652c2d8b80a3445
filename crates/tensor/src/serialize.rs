//! Checkpoint serialization: a named map of parameter arrays, stored as JSON.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use slime_json::{obj, FromJson, JsonError, ToJson, Value};

use crate::tensor::Tensor;

/// One serialized array.
#[derive(Clone, Debug, PartialEq)]
pub struct ArrayRecord {
    /// Shape of the array.
    pub shape: Vec<usize>,
    /// Row-major data.
    pub data: Vec<f32>,
}

impl ToJson for ArrayRecord {
    fn to_json(&self) -> Value {
        obj([
            ("shape", self.shape.to_json()),
            ("data", self.data.to_json()),
        ])
    }
}

impl FromJson for ArrayRecord {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        Ok(ArrayRecord {
            shape: Vec::from_json(v.field("shape")?)?,
            data: Vec::from_json(v.field("data")?)?,
        })
    }
}

/// Why a checkpoint record cannot be loaded into a parameter.
#[derive(Clone, Debug, PartialEq)]
pub enum CheckpointError {
    /// The model has a parameter the checkpoint does not name.
    Missing(String),
    /// A record's data length disagrees with its own shape.
    Length {
        /// Parameter name.
        name: String,
        /// The record's shape.
        shape: Vec<usize>,
        /// The record's data length.
        len: usize,
    },
    /// A record's shape disagrees with the model's parameter.
    Shape {
        /// Parameter name.
        name: String,
        /// The parameter's shape.
        want: Vec<usize>,
        /// The record's shape.
        got: Vec<usize>,
    },
    /// A record holds NaN or ±Inf (JSON has no such literals, but a
    /// number past `f32::MAX`, such as `1e39`, parses to infinity).
    NonFinite {
        /// Parameter name.
        name: String,
        /// Flat index of the first non-finite value.
        index: usize,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Missing(name) => write!(f, "missing parameter {name:?} in checkpoint"),
            CheckpointError::Length { name, shape, len } => write!(
                f,
                "parameter {name:?}: shape {shape:?} does not match data length {len}"
            ),
            CheckpointError::Shape { name, want, got } => write!(
                f,
                "parameter {name:?}: checkpoint shape {got:?}, model expects {want:?}"
            ),
            CheckpointError::NonFinite { name, index } => {
                write!(f, "parameter {name:?}: non-finite value at index {index}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// A named collection of parameter values (like a PyTorch `state_dict`).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StateDict {
    entries: BTreeMap<String, ArrayRecord>,
}

impl ToJson for StateDict {
    fn to_json(&self) -> Value {
        obj([("entries", self.entries.to_json())])
    }
}

impl FromJson for StateDict {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        Ok(StateDict {
            entries: BTreeMap::from_json(v.field("entries")?)?,
        })
    }
}

impl StateDict {
    /// Empty state dict.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored arrays.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the dict holds no arrays.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Insert a tensor's current value under `name`.
    ///
    /// # Panics
    /// Panics if `name` is already present (duplicate parameter names are
    /// always a wiring bug).
    pub fn insert(&mut self, name: &str, t: &Tensor) {
        let v = t.value();
        let prev = self.entries.insert(
            name.to_string(),
            ArrayRecord {
                shape: v.shape().to_vec(),
                data: v.data().to_vec(),
            },
        );
        assert!(prev.is_none(), "duplicate parameter name {name:?}");
    }

    /// The record for `name`, checked for loading into a parameter of
    /// shape `shape`: present, its data length matching its own shape,
    /// that shape matching `shape`, and every value finite.
    pub fn checked(&self, name: &str, shape: &[usize]) -> Result<&ArrayRecord, CheckpointError> {
        let rec = self
            .entries
            .get(name)
            .ok_or_else(|| CheckpointError::Missing(name.to_string()))?;
        if rec.shape.iter().product::<usize>() != rec.data.len() {
            return Err(CheckpointError::Length {
                name: name.to_string(),
                shape: rec.shape.clone(),
                len: rec.data.len(),
            });
        }
        if rec.shape != shape {
            return Err(CheckpointError::Shape {
                name: name.to_string(),
                want: shape.to_vec(),
                got: rec.shape.clone(),
            });
        }
        match rec.data.iter().position(|v| !v.is_finite()) {
            Some(index) => Err(CheckpointError::NonFinite {
                name: name.to_string(),
                index,
            }),
            None => Ok(rec),
        }
    }

    /// Names stored in the dict, sorted.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.keys().map(|s| s.as_str())
    }

    /// Retrieve a raw record.
    pub fn get(&self, name: &str) -> Option<&ArrayRecord> {
        self.entries.get(name)
    }

    /// Serialize to a JSON file.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, slime_json::to_string(self))
    }

    /// Deserialize from a JSON file.
    pub fn load(path: impl AsRef<Path>) -> io::Result<Self> {
        let json = std::fs::read_to_string(path)?;
        slime_json::from_str(&json).map_err(io::Error::other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ndarray::NdArray;

    #[test]
    fn insert_and_load_roundtrip() {
        let t = Tensor::param(NdArray::from_vec(vec![2, 2], vec![1., 2., 3., 4.]));
        let mut sd = StateDict::new();
        sd.insert("w", &t);
        let rec = sd.checked("w", &[2, 2]).unwrap();
        assert_eq!(rec.data, [1., 2., 3., 4.]);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_names_rejected() {
        let t = Tensor::param(NdArray::scalar(1.0));
        let mut sd = StateDict::new();
        sd.insert("w", &t);
        sd.insert("w", &t);
    }

    #[test]
    #[should_panic(expected = "missing")]
    fn missing_name_rejected() {
        let sd = StateDict::new();
        panic!("{}", sd.checked("nope", &[]).unwrap_err());
    }

    #[test]
    fn checked_names_each_defect() {
        let mut sd = StateDict::new();
        sd.insert("w", &Tensor::param(NdArray::zeros(vec![2, 2])));
        assert!(sd.checked("w", &[2, 2]).is_ok());
        assert_eq!(
            sd.checked("v", &[2, 2]),
            Err(CheckpointError::Missing("v".into()))
        );
        assert!(matches!(
            sd.checked("w", &[4]),
            Err(CheckpointError::Shape { .. })
        ));
        let rec = sd.entries.get_mut("w").unwrap();
        rec.data[3] = f32::INFINITY;
        assert_eq!(
            sd.checked("w", &[2, 2]),
            Err(CheckpointError::NonFinite {
                name: "w".into(),
                index: 3
            })
        );
        sd.entries.get_mut("w").unwrap().data.pop();
        assert!(matches!(
            sd.checked("w", &[2, 2]),
            Err(CheckpointError::Length { len: 3, .. })
        ));
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("slime_sd_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.json");
        let t = Tensor::param(NdArray::from_vec(vec![3], vec![0.5, -1.5, 2.5]));
        let mut sd = StateDict::new();
        sd.insert("layer.weight", &t);
        sd.save(&path).unwrap();
        let loaded = StateDict::load(&path).unwrap();
        assert_eq!(loaded, sd);
        std::fs::remove_file(path).ok();
    }
}
