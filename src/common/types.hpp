// Fundamental strong types shared by every subsystem.
//
// The simulator works in four address/index spaces:
//  * byte-granular virtual addresses (VirtAddr),
//  * 4 KB virtual page numbers (PageId = vaddr >> 12),
//  * 16-page / 64 KB chunk numbers (ChunkId = PageId >> 4),
//  * 32-chunk / 2 MB large-frame regions (LargeId = PageId >> 9).
// Chunks are the paper's unit of prefetch and (pre-)eviction; pages are the
// unit of residency and faulting. Large frames are the Mosaic-style optional
// third granularity (docs/memory.md): fully-resident aligned 32-chunk runs
// coalesce into one 2 MB mapping when --large-pages is on.
#pragma once

#include <cstdint>
#include <limits>

namespace uvmsim {

using u8 = std::uint8_t;
using u16 = std::uint16_t;
using u32 = std::uint32_t;
using u64 = std::uint64_t;
using i64 = std::int64_t;

/// Simulation time in GPU core cycles (1.4 GHz in the default config).
using Cycle = std::uint64_t;

/// Byte-granular virtual address in the unified address space.
using VirtAddr = std::uint64_t;

/// Virtual page number (4 KB pages).
using PageId = std::uint64_t;

/// Chunk number: a chunk is kChunkPages consecutive virtual pages (64 KB).
using ChunkId = std::uint64_t;

/// Large-frame region number: kLargeChunks consecutive chunks (2 MB).
using LargeId = std::uint64_t;

inline constexpr u32 kPageShift = 12;            ///< log2(4 KB)
inline constexpr u64 kPageBytes = u64{1} << kPageShift;
inline constexpr u32 kChunkPageShift = 4;        ///< log2(pages per chunk)
inline constexpr u32 kChunkPages = 1u << kChunkPageShift;  ///< 16 pages
inline constexpr u64 kChunkBytes = kPageBytes * kChunkPages;  ///< 64 KB
inline constexpr u32 kLargeChunkShift = 5;       ///< log2(chunks per large frame)
inline constexpr u32 kLargeChunks = 1u << kLargeChunkShift;  ///< 32 chunks
inline constexpr u32 kLargePageShift = kChunkPageShift + kLargeChunkShift;
inline constexpr u32 kLargePages = 1u << kLargePageShift;    ///< 512 pages
inline constexpr u64 kLargeBytes = kPageBytes * kLargePages;  ///< 2 MB

inline constexpr PageId kInvalidPage = std::numeric_limits<PageId>::max();
inline constexpr ChunkId kInvalidChunk = std::numeric_limits<ChunkId>::max();
inline constexpr LargeId kInvalidLarge = std::numeric_limits<LargeId>::max();

/// Identity of one tenant (co-scheduled workload) in a multi-tenant run.
/// Single-tenant simulations use kNoTenant throughout: every tenant-aware
/// component treats kNoTenant as "tenancy off" and behaves exactly as the
/// single-workload simulator (see src/tenancy/tenant.hpp).
using TenantId = u32;
inline constexpr TenantId kNoTenant = std::numeric_limits<TenantId>::max();

[[nodiscard]] constexpr PageId page_of(VirtAddr a) noexcept { return a >> kPageShift; }
[[nodiscard]] constexpr ChunkId chunk_of_page(PageId p) noexcept { return p >> kChunkPageShift; }
[[nodiscard]] constexpr ChunkId chunk_of(VirtAddr a) noexcept { return chunk_of_page(page_of(a)); }
[[nodiscard]] constexpr u32 page_index_in_chunk(PageId p) noexcept {
  return static_cast<u32>(p & (kChunkPages - 1));
}
[[nodiscard]] constexpr PageId first_page_of_chunk(ChunkId c) noexcept {
  return c << kChunkPageShift;
}
[[nodiscard]] constexpr VirtAddr addr_of_page(PageId p) noexcept { return p << kPageShift; }
[[nodiscard]] constexpr LargeId large_of_page(PageId p) noexcept { return p >> kLargePageShift; }
[[nodiscard]] constexpr LargeId large_of_chunk(ChunkId c) noexcept { return c >> kLargeChunkShift; }
[[nodiscard]] constexpr u32 page_index_in_large(PageId p) noexcept {
  return static_cast<u32>(p & (kLargePages - 1));
}
[[nodiscard]] constexpr PageId first_page_of_large(LargeId l) noexcept {
  return l << kLargePageShift;
}
[[nodiscard]] constexpr ChunkId first_chunk_of_large(LargeId l) noexcept {
  return l << kLargeChunkShift;
}

/// The six access-pattern categories of Table II (taken from the HPE paper).
enum class PatternType : u8 {
  kStreaming = 1,            ///< Type I
  kPartlyRepetitive = 2,     ///< Type II
  kMostlyRepetitive = 3,     ///< Type III
  kThrashing = 4,            ///< Type IV
  kRepetitiveThrashing = 5,  ///< Type V
  kRegionMoving = 6,         ///< Type VI
};

[[nodiscard]] constexpr const char* to_string(PatternType t) noexcept {
  switch (t) {
    case PatternType::kStreaming: return "Type I (Streaming)";
    case PatternType::kPartlyRepetitive: return "Type II (Partly Repetitive)";
    case PatternType::kMostlyRepetitive: return "Type III (Mostly Repetitive)";
    case PatternType::kThrashing: return "Type IV (Thrashing)";
    case PatternType::kRepetitiveThrashing: return "Type V (Repetitive-Thrashing)";
    case PatternType::kRegionMoving: return "Type VI (Region Moving)";
  }
  return "?";
}

}  // namespace uvmsim
