//! Byte pins for every canonical JSON document: each test builds a fixed instance
//! (`documents/mod.rs`) and asserts the FNV-1a hash of its JSON, so any change to an
//! encoder's bytes fails here. Report JSON is pinned end to end as well, by the fig15
//! and scenario report fingerprints.

mod documents;

use dg_exec::json::fnv1a;

#[test]
fn trace_bytes_are_pinned() {
    let json = documents::trace().to_json();
    assert_eq!(json, documents::TRACE, "the fixture is canonical");
    assert_eq!(fnv1a(&json), 16_902_648_618_559_928_628);
}

#[test]
fn shard_report_bytes_are_pinned() {
    assert_eq!(
        fnv1a(&documents::shard_report().to_json()),
        2_640_997_938_768_580_861
    );
}

#[test]
fn campaign_report_bytes_are_pinned() {
    assert_eq!(
        fnv1a(&documents::campaign_report().to_json()),
        7_649_539_949_561_594_572
    );
}

#[test]
fn lab_manifest_bytes_are_pinned() {
    let dir = std::env::temp_dir().join("dg-json-pins-lab");
    let manifest = documents::lab_manifest(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(fnv1a(&manifest), 14_977_680_064_822_795_546);
}

#[test]
fn scenario_bytes_are_pinned() {
    let prints: Vec<u64> = documents::scenarios()
        .iter()
        .map(|scenario| fnv1a(&scenario.to_json()))
        .collect();
    assert_eq!(
        prints,
        vec![
            17_119_043_917_962_209_893,
            6_816_645_192_623_908_094,
            17_363_653_634_036_548_233,
            2_023_475_417_525_885_570,
            17_952_709_764_073_446_950,
            9_494_865_220_394_606_059,
            83_899_102_707_588_211,
            7_922_961_855_018_991_826,
            2_702_173_386_165_359_223,
            5_205_269_682_061_251_328,
            6_895_215_188_243_213_512,
        ]
    );
}

#[test]
fn obs_record_bytes_are_pinned() {
    let prints: Vec<u64> = documents::obs_records()
        .iter()
        .map(|record| fnv1a(&record.to_json()))
        .collect();
    assert_eq!(
        prints,
        vec![
            14_923_548_475_952_085_770,
            11_726_123_143_397_601_574,
            17_056_917_256_102_539_014,
            7_429_504_420_377_640_829,
            575_012_598_737_261_241,
            1_397_645_324_812_107_772,
            14_123_787_570_776_218_823,
            10_634_310_536_699_539_032,
            16_016_987_939_824_075_835,
            10_245_487_035_393_783_057,
            6_631_324_623_488_957_332,
            5_799_638_780_730_005_328,
            15_426_871_881_310_621_438,
            3_373_459_183_981_768_728,
            16_628_137_201_439_221_955,
        ]
    );
}

#[test]
fn metrics_snapshot_bytes_are_pinned() {
    assert_eq!(
        fnv1a(&documents::metrics_snapshot().to_json()),
        14_948_363_926_422_082_602
    );
}

#[test]
fn retune_report_bytes_are_pinned() {
    assert_eq!(
        fnv1a(&documents::retune_report().to_json()),
        18_129_597_833_136_019_200
    );
}
