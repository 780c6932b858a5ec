package repro.core

import java.nio.ByteBuffer
import java.nio.file.Files
import org.scalacheck.{Arbitrary, Gen, Prop, Test}
import org.scalacheck.Prop.propBoolean
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import repro.logdata.Datasets

class ModelCodecSpec extends AnyFunSuite {
  private val W = CommonVariables.Wildcard

  private def node(id: Int, parent: Int, tpl: Seq[String], sat: Double, depth: Int): TemplateNode =
    TemplateNode(id, parent, GroupKey(tpl.size, tpl.take(1)), tpl.toIndexedSeq, sat,
      math.min(1.0, sat + 0.01), depth, id * 3L, temporary = id % 2 == 0)

  private val model = new TemplateModel(Vector(
    node(0, -1, Seq("a", W, "c"), 0.5, 0),
    node(1, 0, Seq("a", "b", "c"), 1.0, 1),
    node(2, -1, Seq("uni", "код", "日志"), 0.9, 0),
  ))

  test("serialize/deserialize roundtrip preserves every field") {
    val back = ModelCodec.deserialize(ModelCodec.serialize(model))
    assert(back.nodes == model.nodes)
  }

  test("roundtrip via file") {
    val f = Files.createTempFile("model", ".bin")
    try {
      ModelCodec.save(model, f)
      assert(ModelCodec.load(f).nodes == model.nodes)
    } finally Files.delete(f)
  }

  test("empty model roundtrips") {
    val back = ModelCodec.deserialize(ModelCodec.serialize(TemplateModel.empty))
    assert(back.size == 0)
  }

  test("sizeInBytes equals serialized length and grows with nodes") {
    assert(ModelCodec.sizeInBytes(model) == ModelCodec.serialize(model).length.toLong)
    assert(ModelCodec.sizeInBytes(model) > ModelCodec.sizeInBytes(TemplateModel.empty))
  }

  test("garbage input is rejected") {
    assertThrows[IllegalArgumentException](ModelCodec.deserialize(Array[Byte](1, 2, 3, 4, 5, 6, 7, 8)))
  }

  private val trained: Array[Byte] =
    ModelCodec.serialize(ByteBrain.trainLocal(Datasets.loghub("Linux").lines, ByteBrainConfig(), parallelism = 1))

  /** `bytes` with the big-endian int at `offset` replaced. */
  private def withInt(bytes: Array[Byte], offset: Int, v: Int): Array[Byte] = {
    val b = bytes.clone()
    ByteBuffer.wrap(b).putInt(offset, v)
    b
  }

  private def corruptMessage(bytes: Array[Byte]): Option[String] =
    try { ModelCodec.deserialize(bytes); None }
    catch { case e: IllegalArgumentException if e.getMessage.startsWith("corrupt model file: ") => Some(e.getMessage) }

  test("a corrupt length is rejected before anything is allocated for it") {
    val header = 8 // magic, version
    val firstNode = header + 4
    val prefixSize = firstNode + 4 + 4 + 4 + 8 + 8 + 8 + 1 + 4
    val firstString = prefixSize + 4
    assert(ModelCodec.deserialize(trained).size > 10)
    for ((offset, v) <- Seq(header -> -1, header -> Int.MaxValue, prefixSize -> -7, prefixSize -> (1 << 30),
                            firstString -> -1, firstString -> Int.MaxValue))
      assert(corruptMessage(withInt(trained, offset, v)).isDefined, s"int $v at $offset")
  }

  test("a negative node count is not an empty model") {
    val empty = ModelCodec.serialize(TemplateModel.empty)
    assert(ModelCodec.deserialize(empty).size == 0)
    assert(corruptMessage(withInt(empty, 8, -3)).isDefined)
  }

  test("trailing bytes, a truncation and a duplicate id are corrupt model files") {
    assert(corruptMessage(trained :+ 0.toByte).exists(_.contains("trailing")))
    assert(corruptMessage(trained.dropRight(1)).isDefined)
    assert(corruptMessage(trained.take(10)).exists(_.contains("truncated")))
    val one = ModelCodec.serialize(new TemplateModel(model.nodes.take(1)))
    val sameNodeTwice = withInt(one, 8, 2) ++ one.drop(12)
    assert(corruptMessage(sameNodeTwice).exists(_.contains("duplicate node ids")))
  }

  test("any byte string decodes or is a corrupt model file: random, truncated, bit-flipped, extended (ScalaCheck)") {
    val byteArrays = Gen.containerOf[Array, Byte](Arbitrary.arbitrary[Byte])
    val inputs = Gen.frequency(
      1 -> byteArrays,
      1 -> byteArrays.map(trained.take(12) ++ _), // past the header checks
      2 -> Gen.choose(0, trained.length - 1).map(trained.take),
      4 -> Gen.choose(0, trained.length * 8 - 1).map { bit =>
        val b = trained.clone()
        b(bit / 8) = (b(bit / 8) ^ (1 << (bit % 8))).toByte
        b
      },
      1 -> byteArrays.suchThat(_.nonEmpty).map(trained ++ _),
    )
    val prop = Prop.forAll(inputs) { bytes =>
      val shorter = bytes.length < trained.length && java.util.Arrays.equals(bytes, trained.take(bytes.length))
      val longer = bytes.length > trained.length && java.util.Arrays.equals(bytes.take(trained.length), trained)
      val rejected = corruptMessage(bytes).isDefined // any other exception fails the property
      (!(shorter || longer) || rejected) :| s"${bytes.length} bytes, a strict prefix or extension, decoded"
    }
    val params = Test.Parameters.default.withMinSuccessfulTests(3000).withInitialSeed(Seed(21L))
    val result = Test.check(params, prop)
    assert(result.passed, result.status.toString)
  }

  test("UTF-8 template tokens survive") {
    val back = ModelCodec.deserialize(ModelCodec.serialize(model))
    assert(back.byId(2).template == IndexedSeq("uni", "код", "日志"))
  }

  test("model size stores only templates — much smaller than raw text") {
    // a model over k templates must be ~O(k * template bytes), not O(logs)
    val big = new TemplateModel((0 until 100).map(i =>
      node(i, -1, Seq("tpl", i.toString, W), 1.0, 0)).toVector)
    assert(ModelCodec.sizeInBytes(big) < 100 * 200)
  }
}
