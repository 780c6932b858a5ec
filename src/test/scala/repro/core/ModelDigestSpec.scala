package repro.core

import java.security.MessageDigest
import org.scalatest.funsuite.AnyFunSuite
import repro.logdata.Datasets

/** Pins the exact bytes of trained models: a refactoring of the training core
  * must leave `ModelCodec.serialize(trainLocal(…))` unchanged. A change that
  * alters models on purpose updates these digests and says why in CHANGES.md.
  */
class ModelDigestSpec extends AnyFunSuite {
  private val cfg = ByteBrainConfig()

  private def digest(dataset: String, c: ByteBrainConfig): String = {
    val model = ByteBrain.trainLocal(Datasets.loghub2(dataset).lines, c)
    MessageDigest.getInstance("SHA-256").digest(ModelCodec.serialize(model))
      .map(b => f"${b & 0xff}%02x").mkString
  }

  private val pins: Seq[(String, String, ByteBrainConfig, String)] = Seq(
    ("Mac", "default", cfg, "74579b9cc1701b0c34c974e38e768ba6a440534eb30a244c63be1de74781717a"),
    ("Mac", "prefixTokens = 1", cfg.copy(prefixTokens = 1), "a7bf0a9f86361cea1c8ff164d7353601ab96e25902c9b9866f610214dd64cd07"),
    // Mac has 4,000 lines, so this cap makes sampling apply
    ("Mac", "sampleMaxLogs = 2000", cfg.copy(sampleMaxLogs = 2000), "1f50379489e15c9929946953dbb91e67915249890993ea3bfb2a12b82ff38b84"),
    ("Linux", "default", cfg, "6aa17bc7560471327f63a5aa7f04d1701691e0abf828716bb157ae6b30518fab"),
    ("OpenSSH", "default", cfg, "5733c0c1cd7d50157969be0e4c845917480b35b9d57f097730255d2f3652d3fd"),
  )

  pins.foreach { case (dataset, label, c, expected) =>
    test(s"trained model bytes are pinned: $dataset, $label") {
      assert(digest(dataset, c) == expected)
    }
  }
}
