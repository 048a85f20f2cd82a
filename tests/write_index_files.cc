// Writes a finalized SetR-tree file and a KcR-tree file built from a CSV
// dataset, so end-to-end tests can run `wsk_cli inspect --index` on files
// of the current format.
//
//   write_index_files DATA.csv SETR_OUT KCR_OUT
#include <cstdio>
#include <string>

#include "data/dataset_io.h"
#include "index/kcr_tree.h"
#include "index/setr_tree.h"

namespace {

template <typename Tree>
wsk::Status WriteTree(const wsk::Dataset& dataset, const std::string& path) {
  using namespace wsk;
  StatusOr<std::unique_ptr<Pager>> pager = Pager::Create(path);
  if (!pager.ok()) return pager.status();
  BufferPool pool(pager.value().get(), 4u << 20);
  StatusOr<std::unique_ptr<Tree>> tree =
      Tree::BulkLoad(dataset, &pool, typename Tree::Options());
  if (!tree.ok()) return tree.status();
  return tree.value()->Finalize();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 4) {
    std::fprintf(stderr, "usage: %s DATA.csv SETR_OUT KCR_OUT\n", argv[0]);
    return 2;
  }
  wsk::StatusOr<wsk::Dataset> dataset = wsk::LoadDatasetCsv(argv[1]);
  wsk::Status status = dataset.status();
  if (status.ok()) {
    status = WriteTree<wsk::SetRTree>(dataset.value(), argv[2]);
  }
  if (status.ok()) {
    status = WriteTree<wsk::KcrTree>(dataset.value(), argv[3]);
  }
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
