//===- tests/io/guarded_ports_test.cpp - Dropped-port clean-up -----------===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "io/GuardedPorts.h"
#include "gc/Roots.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>

using namespace gengc;

namespace {

HeapConfig testConfig() {
  HeapConfig C;
  C.ArenaBytes = 64u * 1024 * 1024;
  C.AutoCollect = false;
  return C;
}

TEST(PortTableTest, ReadBackWhatWasWritten) {
  MemoryFileSystem FS;
  PortTable Ports(FS, /*BufferSize=*/8);
  intptr_t Out = Ports.openOutput("f.txt");
  Ports.writeString(Out, "hello port world");
  Ports.close(Out);
  intptr_t In = Ports.openInput("f.txt");
  std::string S;
  for (int C; (C = Ports.readChar(In)) != -1;)
    S.push_back(static_cast<char>(C));
  EXPECT_EQ(S, "hello port world");
  Ports.close(In);
  EXPECT_EQ(Ports.openPortCount(), 0u);
}

TEST(PortTableTest, BufferingDelaysWrites) {
  MemoryFileSystem FS;
  PortTable Ports(FS, /*BufferSize=*/64);
  intptr_t Out = Ports.openOutput("buf.txt");
  Ports.writeString(Out, "abc");
  EXPECT_EQ(FS.sizeOf("buf.txt"), 0u) << "data sits in the buffer";
  EXPECT_EQ(Ports.bufferedBytes(Out), 3u);
  Ports.flush(Out);
  EXPECT_EQ(FS.sizeOf("buf.txt"), 3u);
  Ports.writeString(Out, "def");
  Ports.close(Out);
  EXPECT_EQ(FS.sizeOf("buf.txt"), 6u) << "close did not flush the buffer";
}

TEST(PortTableTest, CloseIsIdempotent) {
  MemoryFileSystem FS;
  PortTable Ports(FS);
  intptr_t Out = Ports.openOutput("x");
  EXPECT_TRUE(Ports.close(Out));
  EXPECT_FALSE(Ports.close(Out));
  EXPECT_EQ(Ports.totalClosed(), 1u);
}

// Ports live in chunks of 1,024, 2,048, 4,096, ... ports. One thread
// opens ports past three chunk boundaries (ids 1024, 3072 and 7168)
// while another reads each back as soon as the table counts it open,
// writes to it and closes it: every id finds its own port, including
// those opened while its chunk was new.
TEST(PortTableTest, OpensAcrossChunkBoundariesWhileAnotherThreadCloses) {
  constexpr intptr_t N = 8000;
  MemoryFileSystem FS;
  PortTable Ports(FS);
  std::thread Closer([&] {
    for (intptr_t Id = 0; Id != N; ++Id) {
      while (Ports.totalOpened() <= static_cast<uint64_t>(Id))
        std::this_thread::yield();
      ASSERT_EQ(Ports.pathOf(Id), "c" + std::to_string(Id))
          << "port " << Id << " reads back another port";
      ASSERT_EQ(Ports.kindOf(Id), PortKind::Output);
      ASSERT_TRUE(Ports.isOpen(Id));
      Ports.writeChar(Id, 'x');
      EXPECT_TRUE(Ports.close(Id));
    }
  });
  for (intptr_t I = 0; I != N; ++I)
    EXPECT_EQ(Ports.openOutput("c" + std::to_string(I)), I);
  Closer.join();
  EXPECT_EQ(Ports.totalOpened(), static_cast<uint64_t>(N));
  EXPECT_EQ(Ports.totalClosed(), static_cast<uint64_t>(N));
  EXPECT_EQ(Ports.openPortCount(), 0u);
  for (intptr_t I = 0; I != N; ++I)
    ASSERT_EQ(FS.sizeOf("c" + std::to_string(I)), 1u) << "port " << I;
}

// Ports 64 ids apart share a stripe lock. Two writers fill ports of
// every stripe, each its own, while a third thread closes other ports
// of the same stripes, whose bytes are still buffered. Every byte lands
// in its file and every port closes once.
TEST(PortTableTest, WritersAndCloserOnSharedStripes) {
  constexpr intptr_t N = 64 * 6;
  constexpr unsigned Chars = 100;
  MemoryFileSystem FS;
  PortTable Ports(FS, /*BufferSize=*/8);
  for (intptr_t I = 0; I != N; ++I) {
    const intptr_t Id = Ports.openOutput("s" + std::to_string(I));
    if (Id / 64 % 3 == 2)
      Ports.writeString(Id, "12345");
  }
  std::atomic<bool> Go{false};
  auto Writer = [&](intptr_t Owner) {
    while (!Go.load(std::memory_order_acquire))
      std::this_thread::yield();
    for (unsigned K = 0; K != Chars; ++K) {
      for (intptr_t Id = 0; Id != N; ++Id)
        if (Id / 64 % 3 == Owner)
          Ports.writeChar(Id, static_cast<char>('a' + K % 26));
    }
    for (intptr_t Id = 0; Id != N; ++Id) {
      if (Id / 64 % 3 == Owner) {
        EXPECT_TRUE(Ports.close(Id));
      }
    }
  };
  std::thread A(Writer, 0), B(Writer, 1);
  std::thread Closer([&] {
    while (!Go.load(std::memory_order_acquire))
      std::this_thread::yield();
    for (intptr_t Id = 0; Id != N; ++Id) {
      if (Id / 64 % 3 == 2) {
        EXPECT_TRUE(Ports.close(Id));
      }
    }
  });
  Go.store(true, std::memory_order_release);
  A.join();
  B.join();
  Closer.join();
  EXPECT_EQ(Ports.totalOpened(), static_cast<uint64_t>(N));
  EXPECT_EQ(Ports.totalClosed(), Ports.totalOpened());
  EXPECT_EQ(Ports.openPortCount(), 0u);
  std::string Written;
  for (unsigned K = 0; K != Chars; ++K)
    Written.push_back(static_cast<char>('a' + K % 26));
  for (intptr_t I = 0; I != N; ++I) {
    std::string Contents;
    ASSERT_TRUE(FS.read("s" + std::to_string(I), Contents));
    EXPECT_EQ(Contents, I / 64 % 3 == 2 ? "12345" : Written) << "port " << I;
  }
}

// The shard runtime's shape: the mutator opens and writes ports while
// the finalization executor flushes and closes earlier ones on its own
// thread. Every byte lands in its file and every port closes once.
TEST(PortTableTest, WriterAndCloserOnTwoThreads) {
  constexpr intptr_t N = 2000;
  MemoryFileSystem FS;
  PortTable Ports(FS, /*BufferSize=*/8);
  std::atomic<intptr_t> Published{0};
  std::thread Closer([&] {
    for (intptr_t Id = 0; Id != N; ++Id) {
      while (Published.load(std::memory_order_acquire) <= Id)
        std::this_thread::yield();
      if (Ports.isOpen(Id)) {
        Ports.flush(Id);
        Ports.close(Id);
      }
    }
  });
  for (intptr_t I = 0; I != N; ++I) {
    const intptr_t Id = Ports.openOutput("f" + std::to_string(I));
    EXPECT_EQ(Id, I);
    for (char C = 'a'; C != 'a' + 16; ++C)
      Ports.writeChar(Id, C);
    Published.store(I + 1, std::memory_order_release);
  }
  Closer.join();
  EXPECT_EQ(Ports.totalOpened(), static_cast<uint64_t>(N));
  EXPECT_EQ(Ports.totalClosed(), static_cast<uint64_t>(N));
  EXPECT_EQ(Ports.openPortCount(), 0u);
  for (intptr_t I = 0; I != N; ++I)
    EXPECT_EQ(FS.sizeOf("f" + std::to_string(I)), 16u);
}

// The paper's scenario: "a port may not be closed explicitly by a user
// program before the last reference to it is dropped. This can tie up
// system resources and may result in data associated with output ports
// remaining unwritten."
TEST(GuardedPortsTest, DroppedOutputPortIsFlushedAndClosed) {
  Heap H(testConfig());
  MemoryFileSystem FS;
  PortTable Ports(FS, /*BufferSize=*/1024);
  GuardedPortSystem GP(H, Ports);
  {
    Root P(H, GP.openOutput("dropped.txt"));
    GP.writeString(P.get(), "unwritten data");
    // No explicit close; the reference is dropped (nonlocal exit,
    // exception, plain forgetfulness...).
  }
  EXPECT_EQ(FS.sizeOf("dropped.txt"), 0u) << "buffered, not yet on disk";
  EXPECT_EQ(Ports.openPortCount(), 1u);
  H.collectMinor();
  size_t Closed = GP.closeDroppedPorts();
  EXPECT_EQ(Closed, 1u);
  EXPECT_EQ(Ports.openPortCount(), 0u) << "resource released";
  EXPECT_EQ(FS.sizeOf("dropped.txt"), 14u) << "buffered data flushed";
  H.verifyHeap();
}

TEST(GuardedPortsTest, OpenTriggersCleanupOfPriorDrops) {
  Heap H(testConfig());
  MemoryFileSystem FS;
  PortTable Ports(FS);
  GuardedPortSystem GP(H, Ports);
  {
    Root P(H, GP.openOutput("a.txt"));
    GP.writeString(P.get(), "aa");
  }
  H.collectMinor();
  // "Dropped ports are closed whenever an open operation is performed."
  Root Q(H, GP.openOutput("b.txt"));
  EXPECT_EQ(GP.droppedPortsClosed(), 1u);
  EXPECT_EQ(Ports.openPortCount(), 1u) << "only the new port remains";
  EXPECT_EQ(FS.sizeOf("a.txt"), 2u);
}

TEST(GuardedPortsTest, LivePortsAreNotClosed) {
  Heap H(testConfig());
  MemoryFileSystem FS;
  PortTable Ports(FS);
  GuardedPortSystem GP(H, Ports);
  Root P(H, GP.openOutput("live.txt"));
  GP.writeString(P.get(), "x");
  H.collectFull();
  GP.closeDroppedPorts();
  EXPECT_TRUE(GP.isOpen(P.get())) << "referenced port must stay open";
  GP.writeString(P.get(), "y");
  GP.close(P.get());
  EXPECT_EQ(FS.sizeOf("live.txt"), 2u);
}

TEST(GuardedPortsTest, ExplicitlyClosedThenDroppedIsTolerated) {
  Heap H(testConfig());
  MemoryFileSystem FS;
  PortTable Ports(FS);
  GuardedPortSystem GP(H, Ports);
  {
    Root P(H, GP.openOutput("c.txt"));
    GP.writeString(P.get(), "zz");
    GP.close(P.get()); // Explicit close first...
  } // ...then dropped.
  H.collectMinor();
  EXPECT_EQ(GP.closeDroppedPorts(), 1u) << "handle still comes back";
  EXPECT_EQ(Ports.totalClosed(), 1u) << "but close ran exactly once";
  EXPECT_EQ(FS.sizeOf("c.txt"), 2u);
}

TEST(GuardedPortsTest, CollectRequestHandlerWiring) {
  HeapConfig C = testConfig();
  C.AutoCollect = true;
  C.Gen0CollectBytes = 32 * 1024;
  Heap H(C);
  MemoryFileSystem FS;
  PortTable Ports(FS);
  GuardedPortSystem GP(H, Ports);
  GP.installCollectRequestHandler();
  {
    Root P(H, GP.openOutput("auto.txt"));
    GP.writeString(P.get(), "abc");
  }
  // Generate allocation pressure until automatic collection has both
  // reclaimed the handle and run the handler. The handle is promoted
  // once before dying, so it takes a generation-1 collection; the
  // automatic schedule reaches generation 1 every few collections.
  Root Keep(H, Value::nil());
  for (int I = 0; I != 300000 && Ports.openPortCount() != 0; ++I)
    H.cons(Value::fixnum(I), Value::nil());
  EXPECT_EQ(Ports.openPortCount(), 0u)
      << "collect-request handler must close the dropped port";
  EXPECT_EQ(FS.sizeOf("auto.txt"), 3u);
  H.verifyHeap();
}

TEST(GuardedPortsTest, DroppedInputPortIsClosed) {
  Heap H(testConfig());
  MemoryFileSystem FS;
  FS.write("data.txt", "abcdef");
  PortTable Ports(FS);
  GuardedPortSystem GP(H, Ports);
  {
    Root P(H, GP.openInput("data.txt"));
    EXPECT_EQ(GP.readChar(P.get()), 'a');
    EXPECT_EQ(GP.readChar(P.get()), 'b');
    EXPECT_FALSE(GP.isOutputPort(P.get()));
  } // Dropped mid-read, never closed.
  H.collectMinor();
  EXPECT_EQ(GP.closeDroppedPorts(), 1u);
  EXPECT_EQ(Ports.openPortCount(), 0u)
      << "input ports release their resources too (close-input-port "
         "branch of the paper's example)";
  H.verifyHeap();
}

TEST(GuardedPortsTest, GuardedExitFlushesEverything) {
  Heap H(testConfig());
  MemoryFileSystem FS;
  PortTable Ports(FS);
  GuardedPortSystem GP(H, Ports);
  {
    Root P1(H, GP.openOutput("e1.txt"));
    Root P2(H, GP.openOutput("e2.txt"));
    GP.writeString(P1.get(), "one");
    GP.writeString(P2.get(), "two");
  }
  H.collectMinor();
  GP.exitCleanup(); // (guarded-exit)
  EXPECT_EQ(Ports.openPortCount(), 0u);
  EXPECT_EQ(FS.sizeOf("e1.txt"), 3u);
  EXPECT_EQ(FS.sizeOf("e2.txt"), 3u);
}

TEST(GuardedPortsTest, ManyDroppedPortsAllRecovered) {
  Heap H(testConfig());
  MemoryFileSystem FS;
  PortTable Ports(FS);
  GuardedPortSystem GP(H, Ports);
  for (int I = 0; I != 200; ++I) {
    Root P(H, GP.openOutput("m" + std::to_string(I)));
    GP.writeString(P.get(), std::to_string(I));
  }
  H.collectFull();
  H.collectFull(); // Handles promoted once; second pass catches all.
  GP.closeDroppedPorts();
  EXPECT_EQ(Ports.openPortCount(), 0u);
  for (int I = 0; I != 200; ++I)
    EXPECT_EQ(FS.sizeOf("m" + std::to_string(I)),
              std::to_string(I).size());
  H.verifyHeap();
}

} // namespace
