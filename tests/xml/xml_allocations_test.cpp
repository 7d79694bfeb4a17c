// Heap allocations per agent message.  Writing a request document, its
// msgid stamp included, takes one: the written string.  Reading a
// delivered one takes three, the Request's path strings: the reader
// allocates nothing.  The portal builds each path in one string, so making
// a request takes those three too.  The count comes from a replaced global
// operator new, which is why this test has a binary of its own.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "agents/portal.hpp"
#include "agents/request.hpp"
#include "xml/xml.hpp"

namespace {

std::uint64_t g_allocations = 0;

}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* block = std::malloc(size == 0 ? 1 : size)) return block;
  throw std::bad_alloc();
}
void operator delete(void* block) noexcept { std::free(block); }
void operator delete(void* block, std::size_t) noexcept { std::free(block); }

namespace gridlb::agents {
namespace {

constexpr std::uint64_t kWriteBudget = 1;
constexpr std::uint64_t kReadBudget = 3;
constexpr std::uint64_t kMakeRequestBudget = 3;

template <class Work>
std::uint64_t allocations(Work work) {
  const std::uint64_t before = g_allocations;
  work();
  return g_allocations - before;
}

/// A request as the portal submits it (StampedDocuments pins its bytes).
Request submitted() {
  Request request;
  request.task = TaskId(1);
  request.app_name = "fft";
  request.binary_file = "/gridlb/binary/fft";
  request.input_file = "/gridlb/binary/fft.input";
  request.model_name = "/gridlb/model/fft";
  request.environment = "mpi";
  request.deadline = 120.0;
  request.email = "user@gridlb.sim";
  request.origin = 1;
  return request;
}

TEST(XmlAllocations, BuildAndWriteRequest) {
  const Request request = submitted();
  std::string payload;
  const std::uint64_t count = allocations([&] {
    payload = to_xml(request);
    xml::stamp_root(payload, "msgid", "4294967296");  // a reliable send
  });
  EXPECT_LE(count, kWriteBudget);
  EXPECT_EQ(request_from_xml(payload), request);
}

TEST(XmlAllocations, ParseAndReadDeliveredRequest) {
  const Request request = submitted();
  std::string payload = to_xml(request);
  xml::stamp_root(payload, "msgid", "4294967296");
  Request delivered;
  const std::uint64_t count = allocations([&] {
    xml::Reader document(payload);
    delivered = request_from_xml(document);
  });
  EXPECT_LE(count, kReadBudget);
  EXPECT_EQ(delivered, request);
}

TEST(XmlAllocations, PortalMakesARequest) {
  // Only the three paths outgrow the small-string buffer, each built in one
  // string sized once.  Joined with `+`, the input path grew its first
  // string once more for an application name of 10 bytes or longer.
  for (const char* app : {"fft", "stencil_3d1"}) {
    const Submission submission{app, 120.0, "mpi", "user@gridlb.sim"};
    Request made;
    const std::uint64_t count = allocations(
        [&] { made = make_request(TaskId(1), submission, 1); });
    EXPECT_LE(count, kMakeRequestBudget) << app;
    EXPECT_EQ(made.input_file, "/gridlb/binary/" + std::string(app) +
                                   ".input");
  }
  const Submission fft{"fft", 120.0, "mpi", "user@gridlb.sim"};
  EXPECT_EQ(make_request(TaskId(1), fft, 1), submitted());
}

}  // namespace
}  // namespace gridlb::agents
