//! Checkpoint round-trips across crate boundaries: a trained model saved to
//! disk and loaded into a fresh instance must score identically.

use slime4rec::{run_slime, NextItemModel, Slime4Rec, SlimeConfig, TrainConfig};
use slime_baselines::{EncoderConfig, TransformerRec};
use slime_data::batch::pad_truncate;
use slime_data::synthetic::{generate, profile};
use slime_data::Split;
use slime_nn::{Module, ParamCollector, TrainContext};
use slime_tensor::StateDict;

#[test]
fn trained_slime_survives_disk_roundtrip() {
    let ds = generate(&profile("beauty", 0.15), 9);
    let mut cfg = SlimeConfig::small(ds.num_items());
    cfg.hidden = 16;
    cfg.max_len = 10;
    let tc = TrainConfig {
        epochs: 1,
        batch_size: 64,
        ..TrainConfig::default()
    };
    let (model, _, _) = run_slime(&ds, &cfg, &tc);

    let dir = std::env::temp_dir().join("slime_ckpt_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("slime.json");
    model.state_dict().save(&path).unwrap();

    let loaded = Slime4Rec::new(cfg.clone());
    loaded.load_state_dict(&StateDict::load(&path).unwrap());

    let (hist, _) = ds.eval_example(0, Split::Test).unwrap();
    let input = pad_truncate(hist, cfg.max_len);
    let mut ctx = TrainContext::eval();
    let a = model
        .score_all(&model.user_repr(&input, 1, &mut ctx))
        .value();
    let b = loaded
        .score_all(&loaded.user_repr(&input, 1, &mut ctx))
        .value();
    assert_eq!(a.data(), b.data());
    std::fs::remove_file(path).ok();
}

#[test]
fn state_dict_names_are_stable_and_complete() {
    let mut cfg = SlimeConfig::small(5);
    cfg.hidden = 8;
    cfg.max_len = 6;
    cfg.layers = 2;
    let model = Slime4Rec::new(cfg);
    let sd = model.state_dict();
    let names: Vec<&str> = sd.names().collect();
    // Every block contributes its filters + norms + FFN.
    for l in 0..2 {
        for suffix in ["wd_re", "wd_im", "ws_re", "ws_im"] {
            assert!(
                names.contains(&format!("block{l}.{suffix}").as_str()),
                "missing block{l}.{suffix} in {names:?}"
            );
        }
    }
    assert!(names.contains(&"item_emb.weight"));
    assert!(names.contains(&"pos_emb.weight"));
    // Count matches the module's own accounting.
    let total: usize = names
        .iter()
        .map(|n| {
            let rec = sd.get(n).unwrap();
            rec.data.len()
        })
        .sum();
    assert_eq!(total, model.num_parameters());
}

#[test]
fn mismatched_checkpoint_is_rejected() {
    let mut cfg = SlimeConfig::small(5);
    cfg.hidden = 8;
    cfg.max_len = 6;
    let model = Slime4Rec::new(cfg.clone());
    let sd = model.state_dict();
    // A deeper model must refuse this checkpoint (missing block1 params).
    let mut deeper = cfg;
    deeper.layers = 4;
    let other = Slime4Rec::new(deeper);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        other.load_state_dict(&sd);
    }));
    assert!(result.is_err(), "loading must panic on missing parameters");
}

#[test]
fn refused_checkpoint_leaves_the_model_untouched() {
    let mut cfg = SlimeConfig::small(5);
    cfg.hidden = 8;
    cfg.max_len = 6;
    let model = Slime4Rec::new(cfg.clone());
    let before = model.state_dict();
    // A shallower model's checkpoint lacks block 1; another seed's
    // checkpoint with its last-loaded record poisoned is valid up to the
    // end, so a loader that wrote as it went would have changed the model.
    let mut shallow = cfg.clone();
    shallow.layers = 1;
    let mut reseeded = cfg;
    reseeded.seed += 1;
    let donor = Slime4Rec::new(reseeded);
    let mut c = ParamCollector::new();
    donor.collect(&mut c);
    let last = &c.entries().last().unwrap().0;
    for sd in [
        Slime4Rec::new(shallow).state_dict(),
        poison(&donor.state_dict(), last),
    ] {
        let err = model.try_load_state_dict(&sd).unwrap_err();
        assert_eq!(model.state_dict(), before, "a refused load wrote: {err}");
    }
}

/// `sd` with `name`'s first value replaced by `1e39`, which parses to
/// infinity.
fn poison(sd: &StateDict, name: &str) -> StateDict {
    let mut v = slime_json::parse(&slime_json::to_string(sd)).unwrap();
    let slime_json::Value::Obj(top) = &mut v else {
        panic!("a state dict is an object")
    };
    let Some(slime_json::Value::Obj(entries)) = top.get_mut("entries") else {
        panic!("a state dict has entries")
    };
    let Some(slime_json::Value::Obj(rec)) = entries.get_mut(name) else {
        panic!("no record {name:?}")
    };
    let Some(slime_json::Value::Arr(data)) = rec.get_mut("data") else {
        panic!("a record has data")
    };
    data[0] = slime_json::Value::Float(1e39);
    slime_json::from_str(&v.to_compact()).unwrap()
}

#[test]
fn transformer_state_dict_roundtrip_in_memory() {
    let cfg = EncoderConfig {
        num_items: 10,
        hidden: 8,
        max_len: 6,
        layers: 1,
        heads: 2,
        dropout: 0.0,
        noise_eps: 0.0,
        seed: 5,
    };
    let a = TransformerRec::sasrec(cfg.clone());
    let b = TransformerRec::sasrec(EncoderConfig { seed: 99, ..cfg });
    let inputs = vec![1, 2, 3, 4, 5, 6];
    let mut ctx = TrainContext::eval();
    let before_a = a.score_all(&a.user_repr(&inputs, 1, &mut ctx)).value();
    b.load_state_dict(&a.state_dict());
    let after_b = b.score_all(&b.user_repr(&inputs, 1, &mut ctx)).value();
    assert_eq!(before_a.data(), after_b.data());
}
