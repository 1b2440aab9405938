//! Train once, serve forever: persist the hashing network and the database
//! codes (the latter as a checksummed segment store), reload them in a
//! fresh "process", and answer k-NN queries from the sharded Hamming index
//! the server uses.
//!
//! ```sh
//! cargo run --release --example persistent_index
//! ```

use std::io::Cursor;
use uhscm::core::pipeline::{Pipeline, SimilaritySource};
use uhscm::core::UhscmConfig;
use uhscm::data::{Dataset, DatasetConfig, DatasetKind};
use uhscm::eval::BitCodes;
use uhscm::nn::Mlp;
use uhscm::serve::GenesisBuilder;
use uhscm::store::{StoreReader, StoreWriter};

fn main() {
    // --- Offline: train and persist --------------------------------------
    let dataset = Dataset::generate(
        DatasetKind::Cifar10Like,
        &DatasetConfig { n_train: 500, n_query: 50, n_database: 2_000, ..DatasetConfig::default() },
        42,
    );
    let pipeline = Pipeline::new(&dataset, 7);
    let config = UhscmConfig { bits: 64, epochs: 20, ..UhscmConfig::for_dataset(dataset.kind) };
    let model = pipeline.train(&SimilaritySource::default(), &config);
    let db_codes = model.encode(&pipeline.features_of(&dataset.split.database));

    // Persist network + database codes (here to memory; files in real use).
    let mut net_blob = Vec::new();
    model.network().save(&mut net_blob).expect("serialize network");
    let mut code_blob = Cursor::new(Vec::new());
    let mut store = StoreWriter::new(&mut code_blob, db_codes.bits()).expect("code width in range");
    store.append(&db_codes).expect("serialize codes");
    store.finish().expect("seal the store");
    let code_blob = code_blob.into_inner();
    println!(
        "persisted: network {} bytes, {} database codes {} bytes",
        net_blob.len(),
        db_codes.len(),
        code_blob.len()
    );

    // --- Online: reload and serve ----------------------------------------
    let served_net = Mlp::load(&mut Cursor::new(&net_blob)).expect("reload network");
    let mut reader = StoreReader::new(code_blob.as_slice()).expect("reload store header");
    let mut genesis = GenesisBuilder::new(reader.bits());
    while let Some(segment) = reader.next_segment().expect("reload segment") {
        genesis.push(segment);
    }
    let index = genesis.finish();
    println!("index online: {} codes in {} shards", index.len(), index.num_shards());

    // Encode incoming queries with the reloaded network and search.
    let query_codes =
        BitCodes::from_real(&served_net.infer(&pipeline.features_of(&dataset.split.query)));
    let class_of = |item: usize| dataset.class_names[dataset.labels[item][0]].as_str();
    for qi in 0..3 {
        let q_item = dataset.split.query[qi];
        let knn = index.search(&query_codes, qi, 5);
        let knn_classes: Vec<&str> =
            knn.iter().map(|&(_, j)| class_of(dataset.split.database[j as usize])).collect();
        println!("query[{qi}] ('{}'): 5-NN classes {:?}", class_of(q_item), knn_classes);
    }
}
