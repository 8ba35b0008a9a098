#include <gtest/gtest.h>

#include <dirent.h>
#include <unistd.h>

#include <cstdio>

#include "storage/paged_store.h"
#include "tests/test_util.h"
#include "workload/generators.h"
#include "workload/query_gen.h"

namespace accl {
namespace {

std::string TempPath(const char* name) {
  return testing::TempDir() + "/" + name;
}

TEST(PagedFile, CreateRejectsTinyPages) {
  EXPECT_EQ(PagedFile::Create(TempPath("tiny.pf"), 16), nullptr);
}

TEST(PagedFile, AllocateGrowsAndReusesRuns) {
  const std::string path = TempPath("alloc.pf");
  auto pf = PagedFile::Create(path, 256);
  ASSERT_NE(pf, nullptr);
  const uint64_t a = pf->AllocateRun(4);
  const uint64_t b = pf->AllocateRun(2);
  EXPECT_NE(a, b);
  EXPECT_EQ(pf->page_count(), 6u);
  EXPECT_EQ(pf->pages_in_use(), 6u);
  pf->FreeRun(a, 4);
  EXPECT_EQ(pf->pages_in_use(), 2u);
  // A smaller run fits in the freed hole (first fit) — no growth.
  const uint64_t c = pf->AllocateRun(3);
  EXPECT_EQ(c, a);
  EXPECT_EQ(pf->page_count(), 6u);
  std::remove(path.c_str());
}

TEST(PagedFile, FreeRunsCoalesce) {
  const std::string path = TempPath("coalesce.pf");
  auto pf = PagedFile::Create(path, 128);
  ASSERT_NE(pf, nullptr);
  const uint64_t a = pf->AllocateRun(2);
  const uint64_t b = pf->AllocateRun(2);
  const uint64_t c = pf->AllocateRun(2);
  (void)c;
  pf->FreeRun(a, 2);
  pf->FreeRun(b, 2);
  // Coalesced hole of 4 pages serves a 4-page run without growing.
  const uint64_t d = pf->AllocateRun(4);
  EXPECT_EQ(d, a);
  EXPECT_EQ(pf->page_count(), 6u);
  std::remove(path.c_str());
}

TEST(PagedFile, ReadWriteRoundTrip) {
  const std::string path = TempPath("rw.pf");
  auto pf = PagedFile::Create(path, 128);
  ASSERT_NE(pf, nullptr);
  const uint64_t run = pf->AllocateRun(2);
  const char msg[] = "hello paged world";
  ASSERT_TRUE(pf->WriteAt(run, 100, msg, sizeof(msg)));  // spans pages
  char back[sizeof(msg)] = {};
  ASSERT_TRUE(pf->ReadAt(run, 100, back, sizeof(back)));
  EXPECT_STREQ(back, msg);
  // Out-of-bounds access is rejected.
  EXPECT_FALSE(pf->ReadAt(run, 2 * 128 - 4, back, 8));
  std::remove(path.c_str());
}

TEST(PagedFile, ReopenPreservesGeometry) {
  const std::string path = TempPath("reopen.pf");
  {
    auto pf = PagedFile::Create(path, 512);
    ASSERT_NE(pf, nullptr);
    pf->AllocateRun(7);
    ASSERT_TRUE(pf->SetDirectory(3, 2, 100));
    ASSERT_TRUE(pf->Sync());
  }
  auto pf = PagedFile::Open(path);
  ASSERT_NE(pf, nullptr);
  EXPECT_EQ(pf->page_bytes(), 512u);
  EXPECT_EQ(pf->page_count(), 7u);
  uint64_t f = 0, p = 0, b = 0;
  ASSERT_TRUE(pf->GetDirectory(&f, &p, &b));
  EXPECT_EQ(f, 3u);
  EXPECT_EQ(p, 2u);
  EXPECT_EQ(b, 100u);
  // MarkAllocated carves from the free pool; double-marking fails.
  EXPECT_TRUE(pf->MarkAllocated(0, 3));
  EXPECT_FALSE(pf->MarkAllocated(2, 2));
  std::remove(path.c_str());
}

TEST(PagedFile, OpenRejectsGarbage) {
  const std::string path = TempPath("garbage.pf");
  ASSERT_TRUE(WriteFile(path, std::vector<uint8_t>(8192, 0xAB)));
  EXPECT_EQ(PagedFile::Open(path), nullptr);
  std::remove(path.c_str());
}

ClusterImage MakeImage(ClusterId id, Dim nd, size_t n, uint64_t seed) {
  ClusterImage img;
  img.id = id;
  img.parent = id == 0 ? kNoCluster : 0;
  img.sig = Signature(nd);
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    img.ids.push_back(static_cast<ObjectId>(1000 * id + i));
    for (Dim d = 0; d < nd; ++d) {
      float a = rng.NextFloat() * 0.5f;
      img.coords.push_back(a);
      img.coords.push_back(a + 0.25f);
    }
  }
  return img;
}

TEST(ClusterFileStore, PutGetRoundTrip) {
  const std::string path = TempPath("store_rt.pf");
  auto store = std::make_unique<ClusterFileStore>(
      PagedFile::Create(path, 1024), 4);
  ClusterImage img = MakeImage(0, 4, 100, 1);
  ASSERT_TRUE(store->Put(img));
  ClusterImage back;
  ASSERT_TRUE(store->Get(0, &back));
  EXPECT_EQ(back.ids, img.ids);
  EXPECT_EQ(back.coords, img.coords);
  EXPECT_EQ(back.sig, img.sig);
  EXPECT_FALSE(store->Get(99, &back));
  std::remove(path.c_str());
}

TEST(ClusterFileStore, AppendUsesReserveThenRelocates) {
  const std::string path = TempPath("store_append.pf");
  auto store = std::make_unique<ClusterFileStore>(
      PagedFile::Create(path, 512), 2);
  ClusterImage img = MakeImage(0, 2, 64, 2);
  ASSERT_TRUE(store->Put(img));
  const uint64_t reloc_before = store->relocations();
  // Push far past the reserve: relocations must happen but stay amortized.
  float coords[4] = {0.1f, 0.2f, 0.3f, 0.4f};
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(store->Append(0, 90000 + i, coords));
  }
  ClusterImage back;
  ASSERT_TRUE(store->Get(0, &back));
  EXPECT_EQ(back.ids.size(), 564u);
  EXPECT_GT(store->relocations(), reloc_before);
  EXPECT_LT(store->relocations(), 40u);
  std::remove(path.c_str());
}

TEST(ClusterFileStore, UtilizationAboveSeventyPercent) {
  const std::string path = TempPath("store_util.pf");
  auto store = std::make_unique<ClusterFileStore>(
      PagedFile::Create(path, 4096), 8);
  for (ClusterId id = 0; id < 20; ++id) {
    ASSERT_TRUE(store->Put(MakeImage(id, 8, 200 + 13 * id, id)));
  }
  // Page rounding grants some extra places; the reserve policy still keeps
  // utilization near the paper's bound.
  EXPECT_GE(store->utilization(), 0.60);
  std::remove(path.c_str());
}

TEST(ClusterFileStore, DirectoryRecovery) {
  const std::string path = TempPath("store_recover.pf");
  std::vector<ClusterImage> originals;
  {
    auto store = std::make_unique<ClusterFileStore>(
        PagedFile::Create(path, 1024), 4);
    for (ClusterId id = 0; id < 10; ++id) {
      originals.push_back(MakeImage(id, 4, 50 + id, id * 7));
      ASSERT_TRUE(store->Put(originals.back()));
    }
    ASSERT_TRUE(store->SaveDirectory());
  }  // "crash": the store object is gone, only the file remains

  auto reopened = PagedFile::Open(path);
  ASSERT_NE(reopened, nullptr);
  auto store = ClusterFileStore::Load(std::move(reopened));
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->cluster_count(), 10u);
  std::vector<ClusterImage> back;
  ASSERT_TRUE(store->GetAll(&back));
  ASSERT_EQ(back.size(), originals.size());
  for (size_t i = 0; i < back.size(); ++i) {
    EXPECT_EQ(back[i].ids, originals[i].ids);
    EXPECT_EQ(back[i].coords, originals[i].coords);
  }
  // Recovered stores keep allocating without clobbering live runs.
  ASSERT_TRUE(store->Put(MakeImage(50, 4, 80, 99)));
  ClusterImage check;
  ASSERT_TRUE(store->Get(3, &check));
  EXPECT_EQ(check.ids, originals[3].ids);
  std::remove(path.c_str());
}

TEST(ClusterFileStore, EndToEndIndexCheckpoint) {
  // Checkpoint a converged adaptive index into the paged store, "crash",
  // recover, and verify identical query answers.
  const std::string path = TempPath("store_e2e.pf");
  const Dim nd = 8;
  AdaptiveConfig cfg;
  cfg.nd = nd;
  AdaptiveIndex idx(cfg);
  UniformSpec spec;
  spec.nd = nd;
  spec.count = 5000;
  spec.seed = 5;
  Dataset ds = GenerateUniform(spec);
  testutil::Load(idx, ds);
  auto qs = GenerateQueriesWithExtent(nd, Relation::kIntersects, 600, 0.1, 7);
  std::vector<ObjectId> out;
  for (const Query& q : qs) {
    out.clear();
    idx.Execute(q, &out);
  }

  {
    auto store = std::make_unique<ClusterFileStore>(
        PagedFile::Create(path, 16384), nd);
    ASSERT_TRUE(store->PutAll(idx));
    ASSERT_TRUE(store->SaveDirectory());
  }
  auto store = ClusterFileStore::Load(PagedFile::Open(path));
  ASSERT_NE(store, nullptr);
  std::vector<ClusterImage> images;
  ASSERT_TRUE(store->GetAll(&images));
  auto recovered = AdaptiveIndex::FromImages(cfg, images);
  recovered->CheckInvariants();
  EXPECT_EQ(recovered->size(), idx.size());
  EXPECT_EQ(recovered->cluster_count(), idx.cluster_count());
  for (int i = 0; i < 25; ++i) {
    EXPECT_EQ(testutil::RunQuery(*recovered, qs[i]),
              testutil::RunQuery(idx, qs[i]));
  }
  std::remove(path.c_str());
}

TEST(ClusterFileStore, EmptyIndexRoundTrip) {
  const std::string path = TempPath("store_empty.pf");
  AdaptiveConfig cfg;
  cfg.nd = 4;
  AdaptiveIndex idx(cfg);
  {
    ClusterFileStore store(PagedFile::Create(path, 1024), cfg.nd);
    ASSERT_TRUE(store.PutAll(idx));
    ASSERT_TRUE(store.SaveDirectory());
  }
  auto store = ClusterFileStore::Load(PagedFile::Open(path));
  ASSERT_NE(store, nullptr);
  std::vector<ClusterImage> images;
  ASSERT_TRUE(store->GetAll(&images));
  auto recovered = AdaptiveIndex::FromImages(cfg, images);
  recovered->CheckInvariants();
  EXPECT_EQ(recovered->size(), 0u);
  EXPECT_EQ(recovered->cluster_count(), 1u);
  std::remove(path.c_str());
}

/// Saves a small three-cluster store of dimensionality `nd` at `path`.
void SaveSmallStore(const std::string& path, Dim nd) {
  ClusterFileStore store(PagedFile::Create(path, 1024), nd);
  for (ClusterId id = 0; id < 3; ++id) {
    ASSERT_TRUE(store.Put(MakeImage(id, nd, 40, id + 1)));
  }
  ASSERT_TRUE(store.SaveDirectory());
}

TEST(ClusterFileStore, LoadRejectsMissingFile) {
  EXPECT_EQ(ClusterFileStore::Load(PagedFile::Open("/nonexistent/path.pf")),
            nullptr);
}

TEST(ClusterFileStore, LoadRejectsWrongDimensionality) {
  // The directory records the dimensionality every stored signature must
  // have: a directory that claims another one is refused.
  const std::string path = TempPath("store_wrongnd.pf");
  SaveSmallStore(path, 3);
  {
    auto pf = PagedFile::Open(path);
    ASSERT_NE(pf, nullptr);
    uint64_t first = 0, pages = 0, bytes = 0;
    ASSERT_TRUE(pf->GetDirectory(&first, &pages, &bytes));
    const uint32_t nd = 4;  // the directory's leading field
    ASSERT_TRUE(pf->WriteAt(first, 0, &nd, sizeof(nd)));
    ASSERT_TRUE(pf->Sync());
  }
  EXPECT_EQ(ClusterFileStore::Load(PagedFile::Open(path)), nullptr);
  // The intact file reports the dimensionality it was saved with, which a
  // caller compares against its AdaptiveConfig before FromImages.
  SaveSmallStore(path, 3);
  auto store = ClusterFileStore::Load(PagedFile::Open(path));
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->dims(), 3u);
  std::remove(path.c_str());
}

TEST(ClusterFileStore, LoadRejectsCorruptedHeader) {
  const std::string path = TempPath("store_badmagic.pf");
  SaveSmallStore(path, 2);
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(ReadFile(path, &bytes));
  bytes[0] ^= 0xFF;  // file magic
  ASSERT_TRUE(WriteFile(path, bytes));
  EXPECT_EQ(ClusterFileStore::Load(PagedFile::Open(path)), nullptr);
  std::remove(path.c_str());
}

TEST(ClusterFileStore, LoadRejectsTruncatedFile) {
  const std::string path = TempPath("store_trunc.pf");
  SaveSmallStore(path, 2);
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(ReadFile(path, &bytes));
  bytes.resize(bytes.size() * 2 / 3);
  ASSERT_TRUE(WriteFile(path, bytes));
  EXPECT_EQ(ClusterFileStore::Load(PagedFile::Open(path)), nullptr);
  std::remove(path.c_str());
}

size_t OpenFdCount() {
  DIR* dir = opendir("/proc/self/fd");
  if (dir == nullptr) return 0;
  size_t n = 0;
  while (readdir(dir) != nullptr) ++n;
  closedir(dir);
  return n;
}

TEST(PagedFile, RejectedOpensLeakNoDescriptors) {
  const std::string garbage = TempPath("leak_garbage.pf");
  ASSERT_TRUE(WriteFile(garbage, std::vector<uint8_t>(8192, 0xCD)));
  const std::string truncated = TempPath("leak_trunc.pf");
  {
    auto pf = PagedFile::Create(truncated, 256);
    ASSERT_NE(pf, nullptr);
    pf->AllocateRun(8);
    ASSERT_TRUE(pf->SetDirectory(0, 1, 64));
  }
  ASSERT_EQ(truncate(truncated.c_str(), 4096 + 3 * 256), 0);  // lose pages
  const size_t before = OpenFdCount();
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(PagedFile::Open(garbage), nullptr);
    EXPECT_EQ(PagedFile::Open(truncated), nullptr);
    EXPECT_EQ(PagedFile::Open(TempPath("leak_missing.pf")), nullptr);
    EXPECT_EQ(PagedFile::Create(TempPath("leak_tiny.pf"), 16), nullptr);
  }
  EXPECT_EQ(OpenFdCount(), before);
  std::remove(garbage.c_str());
  std::remove(truncated.c_str());
}

TEST(PagedFile, OpenRejectsShortReadOfClaimedPages) {
  // A header that claims more payload pages than the file holds must be
  // rejected at Open, not surface later as a short read mid-load.
  const std::string path = TempPath("short_read.pf");
  {
    auto pf = PagedFile::Create(path, 128);
    ASSERT_NE(pf, nullptr);
    pf->AllocateRun(10);
    ASSERT_TRUE(pf->SetDirectory(0, 1, 50));  // persists page_count = 10
  }
  ASSERT_NE(PagedFile::Open(path), nullptr);  // sanity: intact file opens
  ASSERT_EQ(truncate(path.c_str(), 4096 + 5 * 128), 0);
  EXPECT_EQ(PagedFile::Open(path), nullptr);
  std::remove(path.c_str());
}

TEST(PagedFile, OpenRejectsStaleDirectoryPointer) {
  const std::string path = TempPath("stale_dir.pf");
  {
    auto pf = PagedFile::Create(path, 128);
    ASSERT_NE(pf, nullptr);
    pf->AllocateRun(4);
    ASSERT_TRUE(pf->SetDirectory(0, 2, 100));
  }
  // Corrupt dir_first (byte offset 24 in the header) to point past the
  // payload: a stale block from an older, larger layout.
  {
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    const uint64_t bogus = 1000;
    ASSERT_EQ(std::fseek(f, 24, SEEK_SET), 0);
    ASSERT_EQ(std::fwrite(&bogus, sizeof(bogus), 1, f), 1u);
    std::fclose(f);
  }
  EXPECT_EQ(PagedFile::Open(path), nullptr);
  std::remove(path.c_str());
}

TEST(PagedFile, CreateOverExistingFileDropsOldDirectory) {
  // Re-creating a page file over an older one (e.g. after detecting
  // corruption) must not leave the previous directory block reachable.
  const std::string path = TempPath("recreate.pf");
  {
    auto pf = PagedFile::Create(path, 256);
    ASSERT_NE(pf, nullptr);
    pf->AllocateRun(4);
    ASSERT_TRUE(pf->SetDirectory(1, 2, 99));
  }
  {
    auto pf = PagedFile::Create(path, 256);  // truncating re-create
    ASSERT_NE(pf, nullptr);
    uint64_t f = 0, p = 0, b = 0;
    EXPECT_FALSE(pf->GetDirectory(&f, &p, &b));
  }
  auto pf = PagedFile::Open(path);
  ASSERT_NE(pf, nullptr);
  uint64_t f = 0, p = 0, b = 0;
  EXPECT_FALSE(pf->GetDirectory(&f, &p, &b));
  std::remove(path.c_str());
}

TEST(ClusterFileStore, InjectedFaultsFailCleanlyAndRecover) {
  const std::string path = TempPath("faults.pf");
  SimDisk disk = SimDisk::Paper();
  auto store = std::make_unique<ClusterFileStore>(
      PagedFile::Create(path, 1024), 4, &disk);
  ASSERT_TRUE(store->Put(MakeImage(0, 4, 60, 1)));
  ASSERT_TRUE(store->Put(MakeImage(1, 4, 40, 2)));
  ASSERT_TRUE(store->SaveDirectory());
  const uint64_t pages_before = store->file().pages_in_use();

  // Every mutation fails while the device is down; nothing changes.
  disk.FailAfter(0);
  EXPECT_FALSE(store->Put(MakeImage(2, 4, 30, 3)));
  float coords[8] = {0.1f, 0.2f, 0.1f, 0.2f, 0.1f, 0.2f, 0.1f, 0.2f};
  EXPECT_FALSE(store->Append(0, 777, coords));
  ClusterImage img;
  EXPECT_FALSE(store->Get(0, &img));
  EXPECT_FALSE(store->SaveDirectory());
  EXPECT_EQ(store->cluster_count(), 2u);
  EXPECT_EQ(store->file().pages_in_use(), pages_before);
  EXPECT_GE(disk.faults_injected(), 4u);

  // Back to life: reads see the pre-fault contents, writes go through.
  disk.DisarmFaults();
  ASSERT_TRUE(store->Get(0, &img));
  EXPECT_EQ(img.ids.size(), 60u);
  ASSERT_TRUE(store->Append(0, 777, coords));
  ASSERT_TRUE(store->Put(MakeImage(2, 4, 30, 3)));
  ASSERT_TRUE(store->SaveDirectory());

  // And the file itself reloads with the post-recovery state.
  store.reset();
  auto reloaded = ClusterFileStore::Load(PagedFile::Open(path));
  ASSERT_NE(reloaded, nullptr);
  EXPECT_EQ(reloaded->cluster_count(), 3u);
  ASSERT_TRUE(reloaded->Get(0, &img));
  EXPECT_EQ(img.ids.size(), 61u);
  EXPECT_EQ(img.ids.back(), 777u);
  std::remove(path.c_str());
}

TEST(ClusterFileStore, FaultDuringIntermittentWritesKeepsDirectoryLoadable) {
  // Arm a fault mid-stream: whatever fails, the last saved directory must
  // keep loading a consistent snapshot.
  const std::string path = TempPath("faults_mid.pf");
  SimDisk disk = SimDisk::Paper();
  {
    auto store = std::make_unique<ClusterFileStore>(
        PagedFile::Create(path, 1024), 4, &disk);
    for (ClusterId id = 0; id < 6; ++id) {
      ASSERT_TRUE(store->Put(MakeImage(id, 4, 30 + id, id)));
    }
    ASSERT_TRUE(store->SaveDirectory());
    disk.FailAfter(3);  // a few more ops succeed, then the device dies
    for (ClusterId id = 6; id < 12; ++id) {
      if (!store->Put(MakeImage(id, 4, 20, id))) break;
    }
    EXPECT_FALSE(store->SaveDirectory());
  }  // crash with the old directory still the durable one
  auto store = ClusterFileStore::Load(PagedFile::Open(path));
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->cluster_count(), 6u);
  std::vector<ClusterImage> all;
  ASSERT_TRUE(store->GetAll(&all));
  for (size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].ids.size(), 30u + i);
  }
  std::remove(path.c_str());
}

TEST(ClusterFileStore, SimDiskCharging) {
  const std::string path = TempPath("store_sim.pf");
  SimDisk disk = SimDisk::Paper();
  auto store = std::make_unique<ClusterFileStore>(
      PagedFile::Create(path, 1024), 4, &disk);
  ASSERT_TRUE(store->Put(MakeImage(0, 4, 100, 3)));
  EXPECT_GT(disk.seeks(), 0u);
  EXPECT_GT(disk.bytes(), 0u);
  const uint64_t w = disk.bytes();
  ClusterImage back;
  ASSERT_TRUE(store->Get(0, &back));
  EXPECT_GT(disk.bytes(), w);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace accl
